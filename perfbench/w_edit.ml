(* edit-session: CDE writes beside reads on the compressed layer.

   An operation applies one block-aligned CDE edit to the session
   document (Cde.materialize) and re-evaluates one query, in turn,
   through Plan.Session: take-10, plus a full count for err and join.
   Inserts and deletes alternate, so the document length stays level.
   Each round starts from a fresh database and fresh sessions, warmed
   before timing, and replays the same edits: the state does not grow
   from round to round, so operation k costs the same early and late in
   a run.  Four CLI runs per round answer [eval ... --format count] for
   err on a small document. *)

open Common

let base_blocks () = size 16 4
let pool_blocks = 16
let edits_per_round () = size 20 4

type state = {
  cqs : compiled array;
  base : Gen.block array;
  pool : Gen.block array;
  base_text : string;
  pool_text : string;
  edits : (bool * int * int) array;  (** insert?, block, pool block *)
  small : Gen.block array;
}

let setup ctx _rep =
  let rng = Gen.rng ctx.seed 3 in
  let cqs = compile_all () in
  let base = Gen.blocks rng (base_blocks ()) and pool = Gen.blocks rng pool_blocks in
  let edits =
    Array.init (edits_per_round ()) (fun k ->
        (* an insert goes at one of the n+1 block boundaries, the delete
           that follows removes one of the n+1 blocks; positions are
           fixed, so every seed edits the same way *)
        (k mod 2 = 0, ((k * 29) + 3) mod (base_blocks () + 1), k mod pool_blocks))
  in
  let small = Gen.blocks rng 2 in
  {
    cqs;
    base;
    pool;
    base_text = Gen.text_of base;
    pool_text = Gen.text_of pool;
    edits;
    small;
  }

let expr (insert, i, b) =
  let bl = Gen.block_len in
  if insert then
    Cde.Insert
      (Cde.Doc "doc", Cde.Extract (Cde.Doc "pool", (b * bl) + 1, (b + 1) * bl), (i * bl) + 1)
  else Cde.Delete (Cde.Doc "doc", (i * bl) + 1, (i + 1) * bl)

let model st bs (insert, i, b) = if insert then Gen.insert bs i st.pool.(b) else Gen.remove bs i

(* One session per query over a fresh database, warmed by one read. *)
let fresh st =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" st.base_text);
  ignore (Doc_db.add_string db "pool" st.pool_text);
  let sessions =
    Array.map
      (fun { ct; _ } ->
        let s = Incr.create ct db in
        ignore (Cursor.next (Plan.cursor (Plan.make ct (Plan.Session (s, "doc")))));
        Incr.reset_stats s;
        s)
      st.cqs
  in
  (db, sessions)

let op m st db sessions doc k e =
  let after = model st !doc e in
  let { q; ct } = st.cqs.(k mod Array.length st.cqs) in
  let session = sessions.(k mod Array.length st.cqs) in
  Measure.op m
    (fun mark ->
      let t0 = Trace.now () in
      ignore (Trace.span "cde.materialize" (fun _ -> Cde.materialize db "doc" (expr e)));
      let write = Trace.now () -. t0 in
      let cur =
        Trace.span "incr.cursor" (fun _ -> Plan.cursor (Plan.make ct (Plan.Session (session, "doc"))))
      in
      let first = drain incr_cursor ~limit:10 ~mark cur in
      let count =
        if q.drains then
          Some (List.length first + Trace.span "cursor.incr_count" (fun _ -> Cursor.cardinal cur))
        else None
      in
      ((first, count), List.length first, Some write))
    (fun (first, count) ->
      match verify q after ~expect:(`Take 10) first with
      | Error _ as e -> e
      | Ok () -> ( match count with None -> Ok () | Some n -> Oracle.check_count q after n));
  doc := after

(* The CLI's cold start is timed on [spanner_cli eval]: [spanner_cli
   edit] drains the whole answer through Incr before and after its edit
   (25-45 ms on a one-block document), and its time spread by 31%
   between runs in each of three ten-run sets. *)
let cli ctx m st =
  let q = Oracle.err in
  Measure.cli m
    [| ctx.cli; "eval"; q.body; Gen.text_of st.small; "--format"; "count" |]
    (fun out ->
      if int_of_string_opt (String.trim out) = Some (Oracle.count q st.small) then Ok ()
      else Error (Printf.sprintf "cli eval %s printed %S" q.name out))

let run ctx =
  let st, first = time_setup ctx (setup ctx) 1 in
  let again, setup_s = setup_timer ctx (setup ctx) ~first in
  let m = Measure.create () in
  Measure.rounds ~traced:ctx.traced ~seconds:ctx.seconds ~rss_at:14 ~between:again m (fun _ ->
      let db, sessions = fresh st in
      let doc = ref st.base in
      Array.iteri (op m st db sessions doc) st.edits;
      Array.iter
        (fun s ->
          let x = Incr.stats s in
          Trace.count "incr.misses" (float_of_int x.Incr.misses);
          Trace.count "incr.hits" (float_of_int x.Incr.hits))
        sessions;
      Trace.count "incr.edits" (float_of_int (Array.length st.edits));
      for _ = 1 to 4 do
        cli ctx m st
      done);
  let problems = cross_check ctx st.cqs st.small () in
  {
    m;
    setup_s = setup_s ();
    problems;
    inputs = [| st.base; st.pool |];
    about =
      [
        Printf.sprintf "session document: %d bytes; pool: %d bytes; %d edits per round"
          (String.length st.base_text) (String.length st.pool_text) (Array.length st.edits);
      ];
    cqs = st.cqs;
    layer_counts = [];
  }
