(* Operation timing, the measured loop, and what the benchmark reads
   about processes. *)

let now = Trace.now

(* [--tiny] shrinks every input and drops the operation minimum, for
   the benchmark's own smoke test. *)
let tiny = ref false

(* Samples of the round in progress; [end_round] files them. *)
type samples = {
  mutable lat : float list;  (** seconds, every completed operation *)
  mutable ttft : float list;  (** seconds, operations that delivered a tuple *)
  mutable wlat : float list;  (** seconds, the write share *)
  mutable cli : float list;  (** seconds, one CLI process each *)
  mutable busy : float;  (** summed operation time *)
  mutable cpu : float;  (** summed process CPU time inside operations *)
  mutable ops : int;  (** timed operations *)
  mutable tuples : int;
}

type round = { traced : bool; s : samples; attempted_in : int }

type t = {
  mutable cur : samples;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable rounds : round list;  (** latest first *)
  mutable rss_mb : float;  (** peak RSS at the end of round [rss_at] *)
}

let samples () =
  { lat = []; ttft = []; wlat = []; cli = []; busy = 0.; cpu = 0.; ops = 0; tuples = 0 }

let create () =
  { cur = samples (); attempted = 0; failed = 0; errors = []; rounds = []; rss_mb = nan }

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let fail m msg =
  m.failed <- m.failed + 1;
  if List.length m.errors < 5 then m.errors <- msg :: m.errors

(* [op m run verify] times [run mark] — [mark] is called at the first
   tuple, [run] returns its result and the number of tuples it
   delivered — then checks the result with [verify], outside the timed
   section.  [write_part] (seconds) is the share of the operation that
   was a write, when there was one. *)
let op ?(cpu = true) m run verify =
  let c0 = if cpu then cpu_self () else 0. in
  let t0 = now () in
  let first = ref nan in
  let mark () = if Float.is_nan !first then first := now () in
  m.attempted <- m.attempted + 1;
  match run mark with
  | r, tuples, write_part ->
      let t1 = now () in
      let c = m.cur in
      if cpu then c.cpu <- c.cpu +. (cpu_self () -. c0);
      c.busy <- c.busy +. (t1 -. t0);
      c.ops <- c.ops + 1;
      c.lat <- (t1 -. t0) :: c.lat;
      c.tuples <- c.tuples + tuples;
      if not (Float.is_nan !first) then c.ttft <- (!first -. t0) :: c.ttft;
      Option.iter (fun w -> c.wlat <- w :: c.wlat) write_part;
      (match verify r with Ok () -> () | Error msg -> fail m msg)
  | exception e ->
      m.cur.busy <- m.cur.busy +. (now () -. t0);
      fail m (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Processes *)

let proc_status_kb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:key line ->
        Scanf.sscanf (String.sub line (String.length key) (String.length line - String.length key)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let v = scan () in
  close_in ic;
  v

let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM:") /. 1024.

(* utime + stime of a process, in seconds *)
let proc_cpu pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* Whole rounds until [seconds] have passed, at least [min_ops]
   operations ran and, in an untraced run, at least [rss_at] rounds
   ran.  Peak RSS is read at the end of round [rss_at]: a count each
   workload sets to what a full run reaches on the reference machine,
   so the reading covers most of a run (a leak or a cache that never
   stops growing shows in it) but never depends on how many rounds the
   machine's speed lets in.  [cpu], when given, is read at round
   boundaries in place of the CPU time summed over operations (the
   server's, in serve-mix).  In a traced run, round 0 warms caches and
   is left out; after it, odd rounds are traced and even rounds are
   not, so both halves see the same operations and their ratio is the
   tracing overhead.  [between] runs between the rounds that follow
   the peak RSS reading, outside the timed operations, so that it adds
   nothing to that reading. *)
let rounds ~traced ~seconds ?(min_ops = if !tiny then 0 else 100) ?cpu
    ?(rss = fun () -> peak_rss_mb "self") ?(rss_at = 1) ?(between = ignore) m round =
  let rss_at = if traced || !tiny then 1 else rss_at in
  let t_end = now () +. seconds in
  let k = ref 0 in
  while !k < (if traced then 3 else rss_at) || m.attempted < min_ops || now () < t_end do
    let tr = traced && !k mod 2 = 1 in
    if !k > rss_at then between ();
    (* every round starts from the same heap state *)
    Gc.full_major ();
    m.cur <- samples ();
    let a0 = m.attempted in
    let c0 = Option.map (fun f -> f ()) cpu in
    Trace.on := tr;
    round !k;
    Trace.on := false;
    Option.iter (fun c0 -> m.cur.cpu <- Option.get cpu () -. c0) c0;
    if !k > 0 || not traced then
      m.rounds <- { traced = tr; s = m.cur; attempted_in = m.attempted - a0 } :: m.rounds;
    incr k;
    if !k = rss_at then m.rss_mb <- rss ()
  done;
  Printf.eprintf "peak RSS %.1f MB after %d rounds, %.1f MB after all %d\n%!" m.rss_mb rss_at
    (rss ()) !k

let overhead m =
  let per tr =
    let b, o =
      List.fold_left
        (fun (b, o) r -> if r.traced = tr then (b +. r.s.busy, o + r.attempted_in) else (b, o))
        (0., 0) m.rounds
    in
    b /. float_of_int (max 1 o)
  in
  (per true /. per false) -. 1.

(* The samples of the fastest quarter of the untraced rounds (by time
   per operation), pooled.  Every round does the same work, and
   contention from other tenants of the machine only ever slows a round
   down: the fastest rounds are the ones that show the program, and the
   quarter of them is what stays put from run to run. *)
let fastest m =
  let rs = List.filter (fun r -> not r.traced) m.rounds in
  let per_op r = r.s.busy /. float_of_int (max 1 r.s.ops) in
  let sorted = List.sort (fun a b -> compare (per_op a) (per_op b)) rs in
  let keep = List.filteri (fun i _ -> i < max 1 (List.length rs / 4)) sorted in
  let p = samples () in
  List.iter
    (fun r ->
      p.lat <- r.s.lat @ p.lat;
      p.ttft <- r.s.ttft @ p.ttft;
      p.wlat <- r.s.wlat @ p.wlat;
      p.busy <- p.busy +. r.s.busy;
      p.cpu <- p.cpu +. r.s.cpu;
      p.ops <- p.ops + r.s.ops;
      p.tuples <- p.tuples + r.s.tuples)
    keep;
  (p, List.length keep, List.length rs)

(* Every operation latency, and every CLI run, of the untraced rounds *)
let all_latencies m = List.concat_map (fun r -> if r.traced then [] else r.s.lat) m.rounds
let all_cli m = List.concat_map (fun r -> if r.traced then [] else r.s.cli) m.rounds

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 < n then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let median xs = quantile 0.5 xs

(* Time per operation in the last quarter of the untraced rounds over
   that in the first quarter (medians over rounds): above 1 when
   operations get slower as a run goes on.  The gated rates come from
   the fastest rounds, which cannot show such growth; this does. *)
let drift m =
  let per_op =
    List.rev_map
      (fun r -> r.s.busy /. float_of_int (max 1 r.s.ops))
      (List.filter (fun r -> not r.traced) m.rounds)
  in
  let n = List.length per_op in
  let q = max 1 (n / 4) in
  median (List.filteri (fun i _ -> i >= n - q) per_op) /. median (List.filteri (fun i _ -> i < q) per_op)


(* [cli m argv check] runs one CLI process to its end, timing it from
   fork to exit, and checks what it printed.  It counts as an attempted
   operation, but its time goes to [m.cli] only. *)
let cli m argv check =
  m.attempted <- m.attempted + 1;
  let t0 = now () in
  match
    let ic = Unix.open_process_args_in argv.(0) argv in
    let out = In_channel.input_all ic in
    (out, Unix.close_process_in ic)
  with
  | out, Unix.WEXITED 0 -> (
      m.cur.cli <- (now () -. t0) :: m.cur.cli;
      match check out with Ok () -> () | Error msg -> fail m msg)
  | _, _ -> fail m (Printf.sprintf "%s %s exited abnormally" argv.(0) argv.(1))
  | exception e -> fail m (Printexc.to_string e)
