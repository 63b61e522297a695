(* Per-layer metrics of a traced run.

   The workload's own traced rounds give the spans of the layers it
   calls.  A probe then calls every layer once more on the workload's
   documents, traced, so that every per-layer metric exists in every
   traced run: layers a workload does not call are measured on its
   inputs all the same.  Each metric is computed from all spans of its
   name. *)

open Spanner_core
open Common
module Pool = Spanner_util.Pool

let ms = 1e3
let us = 1e6
let ns = 1e9

(* ------------------------------------------------------------------ *)
(* The probe *)

let probe_compiled cqs (docs : Gen.block array array) =
  Array.iter
    (fun bs ->
      let text = Gen.text_of bs in
      Array.iter
        (fun { ct; _ } ->
          let p =
            Trace.span "compiled.prepare" (fun sp ->
                Trace.set_n sp (float_of_int (String.length text));
                Compiled.prepare ct text)
          in
          let st = Compiled.stats p in
          Trace.count "compiled.dag_nodes" (float_of_int st.Compiled.nodes);
          Trace.count "compiled.dag_bytes" (float_of_int (String.length text));
          ignore (drain compiled_cursor ~mark:ignore (Cursor.of_compiled p)))
        cqs)
    docs

(* One database of the workload's documents: SLP sweep, runs per tuple,
   cursor pulls, CDE edits, packing and opening. *)
let probe_slp ctx cqs (docs : Gen.block array array) =
  let db = Doc_db.create () in
  let roots =
    Array.mapi
      (fun i bs ->
        let text = Gen.text_of bs in
        Trace.span "doc_db.add_string" (fun sp ->
            Trace.set_n sp (float_of_int (String.length text));
            Doc_db.add_string db (Printf.sprintf "doc%d" i) text))
      docs
  in
  Array.iter
    (fun { q; ct } ->
      let engine = Slp_spanner.of_compiled ct (Doc_db.store db) in
      Trace.span "slp_spanner.sweep" (fun sp ->
          Trace.set_n sp (float_of_int (Doc_db.compressed_size db));
          Array.iter (Slp_spanner.prepare engine) roots);
      let runs = Array.fold_left (fun acc r -> acc + Slp_spanner.cardinal engine r) 0 roots in
      let tuples = Array.fold_left (fun acc bs -> acc + Oracle.count q bs) 0 docs in
      Trace.count ("slp.runs." ^ q.name) (float_of_int runs);
      Trace.count ("slp.tuples." ^ q.name) (float_of_int tuples);
      ignore (drain slp_cursor ~limit:100 ~mark:ignore (Cursor.of_slp engine roots.(0))))
    cqs;
  let bl = Gen.block_len and nb = Array.length docs.(0) in
  for i = 0 to 7 do
    let b = i mod nb in
    ignore
      (Trace.span "cde.materialize" (fun _ ->
           Cde.materialize db (Printf.sprintf "edit%d" i)
             (Cde.Delete (Cde.Doc "doc0", (b * bl) + 1, (b + 1) * bl))))
  done;
  let path = Filename.concat ctx.work "probe.slpar" in
  ignore (Trace.span "corpus.pack" (fun _ -> Corpus.pack db ~shards:1 path));
  let corpus = Trace.span "corpus.open" (fun _ -> Corpus.open_path path) in
  Array.iter
    (fun (_, r) -> match r with Ok c -> ignore (Cursor.next c) | Error e -> raise e)
    (Plan.cursors (Plan.make ~force:`Compressed cqs.(0).ct (Plan.Packed corpus)));
  Trace.count "corpus.resident_mb" (float_of_int (Corpus.resident_bytes corpus) /. 1048576.)

(* Incremental sessions over the first document: ten block edits, each
   followed by a take-10 per query. *)
let probe_incr cqs (docs : Gen.block array array) =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" (Gen.text_of docs.(0)));
  ignore (Doc_db.add_string db "pool" (Gen.text_of docs.(Array.length docs - 1)));
  let sessions =
    Array.map
      (fun { ct; _ } ->
        let s = Incr.create ct db in
        ignore (Cursor.next (Plan.cursor (Plan.make ct (Plan.Session (s, "doc")))));
        Incr.reset_stats s;
        s)
      cqs
  in
  let bl = Gen.block_len and nb = Array.length docs.(0) in
  for k = 0 to 9 do
    (* inserts and deletes alternate, so the length stays level *)
    let e =
      if k mod 2 = 0 then
        Cde.Insert (Cde.Doc "doc", Cde.Extract (Cde.Doc "pool", 1, bl), (k mod nb * bl) + 1)
      else
        let j = ((3 * k) + 1) mod (nb + 1) in
        Cde.Delete (Cde.Doc "doc", (j * bl) + 1, (j + 1) * bl)
    in
    ignore (Trace.span "cde.materialize" (fun _ -> Cde.materialize db "doc" e));
    Array.iteri
      (fun qi { ct; _ } ->
        let cur =
          Trace.span "incr.cursor" (fun _ ->
              Plan.cursor (Plan.make ct (Plan.Session (sessions.(qi), "doc"))))
        in
        ignore (drain incr_cursor ~limit:10 ~mark:ignore cur))
      cqs
  done;
  Array.iter
    (fun s ->
      let x = Incr.stats s in
      Trace.count "incr.misses" (float_of_int x.Incr.misses);
      Trace.count "incr.hits" (float_of_int x.Incr.hits))
    sessions;
  Trace.count "incr.edits" 10.

(* Pool scaling: the compiled pass over every (query, document) pair on
   one domain and on two; best of three each. *)
let pool_speedup cqs (docs : Gen.block array array) =
  let work =
    Array.concat
      (Array.to_list
         (Array.map (fun bs -> Array.map (fun { ct; _ } -> (ct, Gen.text_of bs)) cqs) docs))
  in
  let time jobs =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Trace.now () in
      ignore (Pool.map ~jobs (fun (ct, text) -> Compiled.cardinal (Compiled.prepare ct text)) work);
      best := min !best (Trace.now () -. t0)
    done;
    !best
  in
  time 1 /. time 2

(* ------------------------------------------------------------------ *)
(* Metrics from the spans *)

let med name scale =
  let ds = List.map Trace.dur (Trace.named name) in
  scale *. Measure.median ds

let rate name scale =
  let ss = Trace.named name in
  scale *. Trace.total Trace.dur ss /. Trace.total (fun s -> s.Trace.n) ss

let self_med name =
  Measure.median
    (List.filter_map
       (fun ((s : Trace.span), self) -> if s.name = name then Some self else None)
       (Trace.with_self ()))

let report ctx (o : outcome) =
  (* cap the probe's input: it must stay small beside the run *)
  let docs =
    Array.map
      (fun bs -> Array.sub bs 0 (min 16 (Array.length bs)))
      (Array.sub o.inputs 0 (min 3 (Array.length o.inputs)))
  in
  Trace.on := true;
  probe_compiled o.cqs docs;
  probe_slp ctx o.cqs docs;
  probe_incr o.cqs docs;
  let replay_ratios =
    match List.assoc_opt "registry.plan_hit_ratio" o.layer_counts with
    | Some _ -> []
    | None ->
        let inp = W_serve.make_inputs ctx (Gen.rng ctx.seed 5) 0 in
        W_serve.replay (Measure.create ()) inp ~seconds:0.
  in
  Trace.on := false;
  let speedup = pool_speedup o.cqs docs in
  let runs_per_tuple =
    let rs =
      List.filter_map
        (fun { q; _ } ->
          let t = Trace.counter ("slp.tuples." ^ q.name) in
          if t > 0. then Some (Trace.counter ("slp.runs." ^ q.name) /. t) else None)
        (Array.to_list o.cqs)
    in
    List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs)
  in
  (* the workload's own figure where it has one, else the probe's *)
  let own name probe = match List.assoc_opt name o.layer_counts with Some v -> v | None -> probe () in
  let ratio name cache = own name (fun () -> List.assoc cache replay_ratios) in
  let hits = Trace.counter "incr.hits" and misses = Trace.counter "incr.misses" in
  let native =
    Measure.median
      (List.filter_map
         (fun (s : Trace.span) -> if s.n > 0. then Some (Trace.dur s) else None)
         (Trace.named "registry.native_cursor"))
  in
  [
    ("optimizer.optimize_ms", "ms", med "optimizer.optimize" ms);
    ("compiled.of_evset_ms", "ms", med "compiled.of_evset" ms);
    ( "compiled.states",
      "count",
      float_of_int (Array.fold_left (fun acc { ct; _ } -> acc + Compiled.states ct) 0 o.cqs) );
    ("compiled.prepare_mb_s", "MB/s", 1. /. rate "compiled.prepare" 1e6);
    ( "compiled.prepare_minor_words_per_byte",
      "words/B",
      let ss = Trace.named "compiled.prepare" in
      Trace.total (fun s -> s.Trace.words) ss /. Trace.total (fun s -> s.Trace.n) ss );
    ( "compiled.dag_nodes_per_byte",
      "count/B",
      Trace.counter "compiled.dag_nodes" /. Trace.counter "compiled.dag_bytes" );
    ("cursor.compiled_pull_ns", "ns", rate "cursor.compiled_drain" ns);
    ("cursor.slp_pull_ns", "ns", rate "cursor.slp_drain" ns);
    ("cursor.slp_ttft_us", "us", med "cursor.slp_first" us);
    ("cursor.incr_pull_ns", "ns", rate "cursor.incr_drain" ns);
    ("slp_spanner.sweep_ms", "ms", med "slp_spanner.sweep" ms);
    ("slp_spanner.nodes_per_s", "1/s", 1. /. rate "slp_spanner.sweep" 1.);
    ("slp_spanner.runs_per_tuple", "ratio", runs_per_tuple);
    ("doc_db.add_ms_per_kb", "ms/KB", rate "doc_db.add_string" (ms *. 1024.));
    ("cde.materialize_us", "us", med "cde.materialize" us);
    ("corpus.pack_ms", "ms", med "corpus.pack" ms);
    ("corpus.open_us", "us", med "corpus.open" us);
    ("corpus.resident_mb", "MB", own "corpus.resident_mb" (fun () -> Trace.counter "corpus.resident_mb"));
    ("incr.misses_per_edit", "count", misses /. Trace.counter "incr.edits");
    ("incr.hit_ratio", "ratio", hits /. (hits +. misses));
    ("protocol.parse_request_us", "us", med "protocol.parse_request" us);
    ("protocol.frame_encode_us", "us", med "protocol.frame_encode" us);
    ("registry.plan_hit_ratio", "ratio", ratio "registry.plan_hit_ratio" "plan_cache");
    ("registry.engine_hit_ratio", "ratio", ratio "registry.engine_hit_ratio" "engine_cache");
    ("registry.doc_hit_ratio", "ratio", ratio "registry.doc_hit_ratio" "doc_cache");
    ("registry.native_cursor_ms", "ms", ms *. native);
    ("registry.load_doc_ms", "ms", med "registry.load_doc" ms);
    ("session.self_ms", "ms", ms *. self_med "session.request");
    ("pool.speedup_2dom", "ratio", speedup);
  ]

(* The human-readable part of a traced run, on stderr. *)
let print_summary (o : outcome) =
  List.iter (fun line -> prerr_endline ("inputs: " ^ line)) o.about;
  let b = o.inputs.(0).(0) in
  Printf.eprintf "block: %d bytes, %d lines; answers per block:" Gen.block_len Gen.lines_per_block;
  Array.iter
    (fun (q : Oracle.query) ->
      Printf.eprintf " %s %d" q.name (Oracle.count q [| b; b |] - Oracle.count q [| b |]))
    Oracle.queries;
  prerr_newline ();
  Array.iter
    (fun { q; ct } -> Printf.eprintf "automaton %-5s %4d states\n" q.name (Compiled.states ct))
    o.cqs;
  Printf.eprintf "tracing overhead: %+.1f%% per operation (traced vs untraced rounds)\n"
    (100. *. Measure.overhead o.m);
  Printf.eprintf "%-12s %8s %12s\n" "layer" "spans" "self_ms";
  List.iter
    (fun (layer, n, self) -> Printf.eprintf "%-12s %8d %12.3f\n" layer n (1e3 *. self))
    (Trace.self_times ());
  List.iter
    (fun { q; _ } ->
      let t = Trace.counter ("slp.tuples." ^ q.name) in
      if t > 0. then
        Printf.eprintf "runs per tuple %-5s %8.1f\n" q.name (Trace.counter ("slp.runs." ^ q.name) /. t))
    (Array.to_list o.cqs);
  flush stderr
