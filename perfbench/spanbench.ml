(* spanbench: one workload per process, checked against the oracle,
   printing every end-to-end metric (or, with --trace 1, every
   per-layer metric) as the last line of stdout.

     spanbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH

   perfbench/run.py builds this executable and the CLI, then runs it. *)

let workloads =
  [
    ("extract-plain", W_plain.run);
    ("versions-packed", W_packed.run);
    ("edit-session", W_edit.run);
    ("serve-mix", W_serve.run);
  ]

let usage () =
  prerr_endline
    "usage: spanbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH [--tiny]";
  exit 2

(* a metric that could not be measured stops the run: no result beats
   a wrong one *)
let json_num name v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not a finite number" name)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.12g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num name v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let end_to_end (o : Common.outcome) =
  let p, _, _ = Measure.fastest o.m in
  let ms = 1000. and ops = float_of_int p.ops in
  [
    ("setup_s", "s", o.setup_s);
    ("peak_rss_mb", "MB", o.m.rss_mb);
    ("ops_per_s", "1/s", ops /. p.busy);
    ("op_p50_ms", "ms", ms *. Measure.median p.lat);
    ("op_p90_ms", "ms", ms *. Measure.quantile 0.9 p.lat);
    ("ttft_p50_ms", "ms", ms *. Measure.median p.ttft);
    ("tuples_per_s", "1/s", float_of_int p.tuples /. p.busy);
    ("cpu_ms_per_op", "ms", ms *. p.cpu /. ops);
    ("write_p50_ms", "ms", ms *. Measure.median p.wlat);
    (* a CLI run is a process of its own: every run of them counts *)
    ("cli_cold_ms", "ms", ms *. Measure.median (Measure.all_cli o.m));
  ]

let () =
  (* a terminated run still stops the server it started (at_exit) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH");
      ("--tiny", Arg.Set Measure.tiny, " tiny inputs, for the smoke test");
    ]
    (fun _ -> usage ())
    "spanbench";
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !cli = "" || not (Sys.file_exists !cli) then usage ();
  let work = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Common.mkdir_p work;
  let ctx =
    {
      Common.seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      cli = !cli;
      work;
    }
  in
  let outcome, metrics =
    Fun.protect
      ~finally:(fun () -> Common.rm_rf work)
      (fun () ->
        let outcome = run ctx in
        if ctx.traced then begin
          let layer = Layers.report ctx outcome in
          Layers.print_summary outcome;
          Trace.write_out
            (Filename.concat ".perfbench" (Printf.sprintf "spans-%s-%d.tsv" !workload !seed));
          (outcome, layer)
        end
        else (outcome, end_to_end outcome))
  in
  let m = outcome.m in
  if not ctx.traced then begin
    let _, kept, n = Measure.fastest m in
    Printf.eprintf "metrics over the fastest %d of %d rounds; per-round ops/s: %s\n" kept n
      (String.concat " "
         (List.rev_map
            (fun (r : Measure.round) -> Printf.sprintf "%.1f" (float_of_int r.s.ops /. r.s.busy))
            m.rounds));
    Printf.eprintf "drift: time per operation, last quarter of rounds over the first, %.3f\n"
      (Measure.drift m);
    (* a p99 is only a tail with at least ten samples beyond it *)
    let lat = Measure.all_latencies m in
    if List.length lat >= 1000 then
      Printf.eprintf "op_p99_ms %.4g over all %d operations\n" (1000. *. Measure.quantile 0.99 lat)
        (List.length lat)
  end;
  List.iter (fun e -> prerr_endline ("failed: " ^ e)) m.errors;
  List.iter (fun e -> prerr_endline ("check: " ^ e)) outcome.problems;
  print_result ~correct:(outcome.problems = []) ~attempted:m.attempted ~failed:m.failed metrics
