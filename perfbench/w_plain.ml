(* extract-plain: batch extraction over plain log documents.

   An operation reads one (query, document) pair through Plan -> Cursor
   to a full drain: the compiled per-document pass does the work and no
   SLP layer runs on the read path.  One write per round ingests a
   fresh document into a new document database (the LZ78 + balancing
   compressor), and four runs of [spanner_cli eval err --format count]
   per round time the CLI from fork to answer.  Every round does
   exactly the same work. *)

open Common

let docs_n () = size 8 2
let blocks_per_doc () = size 8 2

type state = {
  cqs : compiled array;
  docs : Gen.block array array;
  texts : string array;
  ingest : string array;
  order : (int * int) array;  (** (query, document) in operation order *)
  small : Gen.block array;  (** the CLI's document *)
  small_path : string;
}

let setup ctx rep =
  let rng = Gen.rng ctx.seed 1 in
  let docs = Array.init (docs_n ()) (fun _ -> Gen.blocks rng (blocks_per_doc ())) in
  let ingest = Array.init 4 (fun _ -> Gen.text_of (Gen.blocks rng (blocks_per_doc ()))) in
  let small = Gen.blocks rng 2 in
  (* a fixed order: which read follows which must not change with the
     seed *)
  let order =
    Array.init (Array.length Oracle.queries * docs_n ()) (fun i ->
        (i mod Array.length Oracle.queries, i / Array.length Oracle.queries))
  in
  let small_path = Filename.concat ctx.work (Printf.sprintf "small-%d.txt" rep) in
  write_file small_path (Gen.text_of small);
  {
    cqs = compile_all ();
    docs;
    texts = Array.map Gen.text_of docs;
    ingest;
    order;
    small;
    small_path;
  }

let read m st (qi, di) =
  let { q; ct } = st.cqs.(qi) in
  let text = st.texts.(di) in
  Measure.op m
    (fun mark ->
      let plan = Plan.make ct (Plan.Doc text) in
      (* on a [Doc] input, Plan.cursor is the compiled document pass *)
      let cur =
        Trace.span "compiled.prepare" (fun sp ->
            Trace.set_n sp (float_of_int (String.length text));
            Plan.cursor plan)
      in
      let ts = drain compiled_cursor ~mark cur in
      (ts, List.length ts, None))
    (verify q st.docs.(di) ~expect:`All)

let write m st k =
  let text = st.ingest.(k mod Array.length st.ingest) in
  Measure.op m
    (fun _ ->
      let t0 = Trace.now () in
      let db = Doc_db.create () in
      let id =
        Trace.span "doc_db.add_string" (fun sp ->
            Trace.set_n sp (float_of_int (String.length text));
            Doc_db.add_string db "doc" text)
      in
      ((db, id), 0, Some (Trace.now () -. t0)))
    (fun (db, id) ->
      if Slp.to_string (Doc_db.store db) id = text then Ok ()
      else Error "ingest: the stored text differs")

(* every CLI run answers the same query: the median of runs of
   queries that cost different amounts would fall between two of them *)
let cli ctx m st =
  let q = Oracle.err in
  Measure.cli m
    [| ctx.cli; "eval"; q.body; "--file"; st.small_path; "--format"; "count" |]
    (fun out ->
      if int_of_string_opt (String.trim out) = Some (Oracle.count q st.small) then Ok ()
      else Error (Printf.sprintf "cli eval %s printed %S" q.name out))

let run ctx =
  let st, first = time_setup ctx (setup ctx) 1 in
  let again, setup_s = setup_timer ctx (setup ctx) ~first in
  let m = Measure.create () in
  Measure.rounds ~traced:ctx.traced ~seconds:ctx.seconds ~rss_at:60 ~between:again m (fun k ->
      Array.iter (read m st) st.order;
      write m st k;
      for _ = 1 to 4 do
        cli ctx m st
      done);
  {
    m;
    setup_s = setup_s ();
    problems = cross_check ctx st.cqs st.small ();
    inputs = st.docs;
    about =
      [
        Printf.sprintf "%d documents of %d bytes; writes ingest %d-byte texts" (Array.length st.docs)
          (String.length st.texts.(0)) (String.length st.ingest.(0));
      ];
    cqs = st.cqs;
    layer_counts = [];
  }
