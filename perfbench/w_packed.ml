(* versions-packed: a document database of many versions of one log
   (§4), packed into an SLPAR1 arena and opened by mmap.

   The versions come from block-aligned CDE edits (delete one block,
   insert one block of a pool document), so they share almost all
   their grammar.  An operation reads one (query, document) pair
   through Plan.Packed: a full drain for err and join, take-10 for user
   and num.  The first read of each query pays the matrix sweep.  One
   write per query pass derives a new version with a CDE edit in the
   heap database the arena was packed from; four CLI runs of
   [batch err --store --limit 10 --format count] per round time the CLI
   on a small arena. *)

open Common

let base_blocks () = size 8 4
let pool_blocks = 16
let versions () = size 24 4

type state = {
  cqs : compiled array;
  db : Doc_db.t;  (** the heap database the arena was packed from *)
  corpus : Corpus.t;
  models : (string, Gen.block array) Hashtbl.t;
  names : string array;  (** arena documents, in [Corpus.docs] order *)
  pool : Gen.block array;
  edits : (int * int * int) array;  (** deleted block, pool block, insert position *)
  small_path : string;
  small_models : (string * Gen.block array) list;
}

let edit_expr prev (a, b, c) =
  let bl = Gen.block_len in
  Cde.Insert
    ( Cde.Delete (Cde.Doc prev, (a * bl) + 1, (a + 1) * bl),
      Cde.Extract (Cde.Doc "pool", (b * bl) + 1, (b + 1) * bl),
      (c * bl) + 1 )

let edit_model pool model (a, b, c) = Gen.insert (Gen.remove model a) c pool.(b)

(* The edit deriving version [v] from version [v - 1] of an [n]-block
   log.  Positions are fixed, not drawn from the seed: the seed changes
   the text, never the shape of the grammar, so every seed does the
   same amount of work. *)
let edit_of v ~n ~pool_n = ((v * 37) mod n, v mod pool_n, ((v * 53) + 11) mod n)

(* A database of a base log and [n] versions, each one edit away from
   the previous one. *)
let build_db ?(pool_n = pool_blocks) rng ~base_n ~n =
  let base = Gen.blocks rng base_n and pool = Gen.blocks rng pool_n in
  let db = Doc_db.create () in
  let models = Hashtbl.create 80 in
  let add name bs =
    Hashtbl.replace models name bs;
    ignore
      (Trace.span "doc_db.add_string" (fun sp ->
           let text = Gen.text_of bs in
           Trace.set_n sp (float_of_int (String.length text));
           Doc_db.add_string db name text))
  in
  add "base" base;
  add "pool" pool;
  let prev = ref "base" in
  for v = 1 to n do
    let name = Printf.sprintf "v%02d" v in
    let e = edit_of v ~n:base_n ~pool_n in
    ignore (Trace.span "cde.materialize" (fun _ -> Cde.materialize db name (edit_expr !prev e)));
    Hashtbl.replace models name (edit_model pool (Hashtbl.find models !prev) e);
    prev := name
  done;
  (db, models, pool)

let pack db path =
  ignore (Trace.span "corpus.pack" (fun _ -> Corpus.pack db ~shards:1 path));
  Trace.span "corpus.open" (fun _ -> Corpus.open_path path)

let setup ctx rep =
  let rng = Gen.rng ctx.seed 2 in
  let cqs = compile_all () in
  let db, models, pool = build_db rng ~base_n:(base_blocks ()) ~n:(versions ()) in
  let corpus = pack db (Filename.concat ctx.work (Printf.sprintf "versions-%d.slpar" rep)) in
  (* reads go in a fixed order: which read follows which must not
     change with the seed *)
  let names = Array.map (fun (n, _, _) -> n) (Corpus.docs corpus) in
  let edits = Array.init 8 (fun i -> edit_of (100 + i) ~n:(base_blocks ()) ~pool_n:pool_blocks) in
  let sdb, smodels, _ = build_db rng ~pool_n:2 ~base_n:2 ~n:2 in
  let small_path = Filename.concat ctx.work (Printf.sprintf "small-%d.slpar" rep) in
  ignore (Corpus.pack sdb ~shards:1 small_path);
  {
    cqs;
    db;
    corpus;
    models;
    names;
    pool;
    edits;
    small_path;
    small_models = List.of_seq (Hashtbl.to_seq smodels);
  }

let read m st { q; ct } cursors di =
  let name = st.names.(di) in
  let bs = Hashtbl.find st.models name in
  let limit = if q.drains then None else Some 10 in
  Measure.op m
    (fun mark ->
      if di = 0 then
        cursors :=
          Trace.span "slp_spanner.sweep" (fun sp ->
              Trace.set_n sp (float_of_int (Corpus.node_count st.corpus));
              Plan.cursors (Plan.make ct (Plan.Packed st.corpus)));
      let ts =
        match snd !cursors.(di) with
        | Ok c -> drain slp_cursor ?limit ~mark c
        | Error e -> raise e
      in
      (ts, List.length ts, None))
    (verify q bs ~expect:(match limit with None -> `All | Some k -> `Take k))

let write m st k =
  let src = Printf.sprintf "v%02d" (1 + (k mod versions ())) in
  let e = st.edits.(k mod Array.length st.edits) in
  Measure.op m
    (fun _ ->
      let t0 = Trace.now () in
      let id =
        Trace.span "cde.materialize" (fun _ ->
            Cde.materialize st.db (Printf.sprintf "w%d" (k mod 8)) (edit_expr src e))
      in
      (id, 0, Some (Trace.now () -. t0)))
    (fun id ->
      let want = Gen.text_of (edit_model st.pool (Hashtbl.find st.models src) e) in
      if Slp.to_string (Doc_db.store st.db) id = want then Ok ()
      else Error "version edit: the new version's text differs")

let cli ctx m st =
  let q = Oracle.err in
  Measure.cli m
    [|
      ctx.cli; "batch"; q.body; "--store"; st.small_path; "--engine"; "compressed";
      "--limit"; "10"; "--format"; "count";
    |]
    (fun out ->
      let ok =
        List.for_all
          (fun (name, bs) ->
            List.exists
              (fun line -> line = Printf.sprintf "%s: %d" name (min 10 (Oracle.count q bs)))
              (String.split_on_char '\n' out))
          st.small_models
      in
      if ok then Ok () else Error (Printf.sprintf "cli batch %s printed %S" q.name out))

(* pair is not read: a take-10 of it absorbs about 10K runs in the
   dedup table and costs 100 times a take-10 of user, so its reads set
   op_p90 and swung it by 25-38% between runs.  The layer probe still
   reads it through the compressed engine. *)
let read_queries cqs = Array.of_list (List.filter (fun { q; _ } -> q.name <> "pair") (Array.to_list cqs))

let run ctx =
  let st, first = time_setup ctx (setup ctx) 1 in
  let again, setup_s = setup_timer ctx (setup ctx) ~first in
  let reads = read_queries st.cqs in
  let m = Measure.create () in
  Measure.rounds ~traced:ctx.traced ~seconds:ctx.seconds ~rss_at:21 ~between:again m (fun k ->
      Array.iteri
        (fun pass cq ->
          (* every pass starts from the same heap state: whether the
             previous pass's engine is still uncollected when the next
             one is built would otherwise decide the peak RSS *)
          Gc.full_major ();
          (* the first read of a pass sweeps and opens one cursor per
             document; every read consumes its document's cursor *)
          let cursors = ref [||] in
          for di = 0 to Array.length st.names - 1 do
            read m st cq cursors di
          done;
          write m st ((k * Array.length reads) + pass))
        reads;
      for _ = 1 to 4 do
        cli ctx m st
      done);
  let resident_mb = float_of_int (Corpus.resident_bytes st.corpus) /. 1048576. in
  let problems = cross_check ctx st.cqs (snd (List.hd st.small_models)) () in
  {
    m;
    setup_s = setup_s ();
    problems;
    inputs = Array.of_list (List.map (Hashtbl.find st.models) [ "base"; "v01"; "v02" ]);
    about =
      [
        Printf.sprintf "arena: %d documents, %d bytes of text over %d nodes (ratio %.0f), %d bytes mapped"
          (Corpus.doc_count st.corpus) (Corpus.total_len st.corpus) (Corpus.node_count st.corpus)
          (float_of_int (Corpus.total_len st.corpus) /. float_of_int (Corpus.node_count st.corpus))
          (Corpus.mapped_bytes st.corpus);
      ];
    cqs = st.cqs;
    layer_counts = [ ("corpus.resident_mb", resident_mb) ];
  }
