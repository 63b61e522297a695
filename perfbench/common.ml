(* What every workload shares: run settings, query compilation, cursor
   drains, and the cross-engine check. *)

open Spanner_core
module Cursor = Spanner_engine.Cursor
module Plan = Spanner_engine.Plan
module Optimizer = Spanner_engine.Optimizer
module Slp = Spanner_slp.Slp
module Slp_spanner = Spanner_slp.Slp_spanner
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Corpus = Spanner_store.Corpus
module Incr = Spanner_incr.Incr

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  cli : string;  (** path of the spanner_cli executable *)
  work : string;  (** the run's scratch directory, inside the checkout *)
}

let size full small = if !Measure.tiny then small else full

type compiled = { q : Oracle.query; ct : Compiled.t }

let compile (q : Oracle.query) =
  if q.algebra then
    let plan =
      Trace.span "optimizer.optimize" (fun _ -> Optimizer.optimize (Algebra.parse q.body))
    in
    match Optimizer.compiled plan with
    | Some ct -> { q; ct }
    | None -> failwith (q.name ^ ": the optimizer did not fuse the query")
  else
    let f = Regex_formula.parse q.body in
    let e = Trace.span "evset.of_formula" (fun _ -> Evset.of_formula f) in
    { q; ct = Trace.span "compiled.of_evset" (fun _ -> Compiled.of_evset e) }

let compile_all () = Array.map compile Oracle.queries

let time_setup ctx setup rep =
  (* each set-up starts from the same heap state *)
  Gc.full_major ();
  Trace.on := ctx.traced;
  let t0 = Trace.now () in
  let s = setup rep in
  let dt = Trace.now () -. t0 in
  Trace.on := false;
  (s, dt)

(* Set-up is timed once before the measured rounds (the state they run
   on), then again by [again]: between the rounds after the peak RSS
   reading, in the workloads whose set-up is cheap.  [median] tops the
   count up to 5 (1 with [--tiny]) and gives the median.  Repetitions
   spread over a stretch of the run see more of the machine's slow and
   fast phases than a burst at its end, so the median depends less on
   the phase the run happened to end in.  They come after the RSS
   reading because repeated set-ups raise the peak: extract-plain's
   from about 25 MB to about 67 MB. *)
let setup_timer ctx setup ~first =
  let times = ref [ first ] in
  let again () =
    let _, dt = time_setup ctx setup (List.length !times + 1) in
    times := dt :: !times
  in
  let median () =
    while List.length !times < if !Measure.tiny then 1 else 5 do
      again ()
    done;
    Measure.median !times
  in
  (again, median)

(* [drain kind ?limit ~mark cur] pulls up to [limit] tuples (all when
   absent).  The first pull and the rest are separate spans, so the
   trace gives both the time to the first tuple and the delay per
   pull. *)
let drain (first_name, drain_name) ?limit ~mark cur =
  let cur = match limit with Some k -> Cursor.take cur k | None -> cur in
  match Trace.span first_name (fun _ -> Cursor.next cur) with
  | None -> []
  | Some t ->
      mark ();
      Trace.span drain_name (fun sp ->
          let rec go acc n =
            match Cursor.next cur with
            | None ->
                Trace.set_n sp (float_of_int n);
                List.rev acc
            | Some t -> go (t :: acc) (n + 1)
          in
          go [ t ] 1)

let compiled_cursor = ("cursor.compiled_first", "cursor.compiled_drain")
let slp_cursor = ("cursor.slp_first", "cursor.slp_drain")
let incr_cursor = ("cursor.incr_first", "cursor.incr_drain")

let verify q bs ~expect ts = Oracle.check q bs ~expect (List.map Oracle.of_span_tuple ts)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Cross-engine check: the same text through the plain batch path
   ([Docs]), a packed arena ([Packed], compressed engine forced) and an
   incremental session ([Session]) must give the oracle's tuple set.
   [extra] adds other sources (the server, in serve-mix). *)

let cross_check ctx cqs (bs : Gen.block array) ?(extra = fun _ -> []) () =
  let text = Gen.text_of bs in
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" text);
  let path = Filename.concat ctx.work "cross.slpar" in
  ignore (Corpus.pack db ~shards:1 path);
  let corpus = Corpus.open_path path in
  let of_slots slots =
    match slots with
    | [| (_, Ok c) |] -> Cursor.to_list c
    | _ -> failwith "cross-check: expected one document"
  in
  Array.to_list cqs
  |> List.concat_map (fun { q; ct } ->
       let want = List.sort compare (Oracle.all q bs) in
       let session = Incr.create ct db in
       let sources =
         [
           ("Docs", of_slots (Plan.cursors (Plan.make ct (Plan.Docs [| ("doc", text) |]))));
           ( "Packed",
             of_slots (Plan.cursors (Plan.make ~force:`Compressed ct (Plan.Packed corpus))) );
           ("Session", Cursor.to_list (Plan.cursor (Plan.make ct (Plan.Session (session, "doc")))));
         ]
       in
       let sources =
         List.map (fun (n, ts) -> (n, List.map Oracle.of_span_tuple ts)) sources
         @ extra { q; ct }
       in
       List.filter_map
         (fun (n, ts) ->
           if List.sort compare ts = want then None
           else Some (Printf.sprintf "cross-check %s via %s differs from the oracle" q.name n))
         sources)

(* What a workload hands back to the report. *)
type outcome = {
  m : Measure.t;
  setup_s : float;
  problems : string list;  (** failed set-up or cross-engine checks *)
  inputs : Gen.block array array;  (** the documents, for the layer probe *)
  about : string list;  (** the make-up of the inputs, printed by traced runs *)
  cqs : compiled array;
  layer_counts : (string * float) list;
      (** per-layer values the workload measured itself, by metric name *)
}
