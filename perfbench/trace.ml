(* Spans around the benchmark's calls into each layer of the library.

   A span records its name, start, end, parent, a work count [n] set by
   the caller (bytes, pulls, nodes...) and the minor words allocated
   inside it.  Spans stay in memory and are written out at exit.  When
   tracing is off, [span] is one branch and a call: end-to-end numbers
   always come from untraced runs. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  id : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
  mutable n : float;
  mutable words : float;
}

let on = ref false
let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let dummy = { name = ""; id = -1; parent = -1; t0 = 0.; t1 = 0.; n = 0.; words = 0. }

let span name f =
  if not !on then f dummy
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; id; parent; t0 = now (); t1 = 0.; n = 0.; words = Gc.minor_words () } in
    stack := id :: !stack;
    let finish () =
      s.t1 <- now ();
      s.words <- Gc.minor_words () -. s.words;
      stack := List.tl !stack;
      finished := s :: !finished
    in
    match f s with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let set_n s n = s.n <- n

(* Named counters, summed over the traced run. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !on then
    Hashtbl.replace counters name (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* ------------------------------------------------------------------ *)
(* Reading the spans back *)

let named name = List.filter (fun s -> s.name = name) !finished
let dur s = s.t1 -. s.t0
let total f ss = List.fold_left (fun acc s -> acc +. f s) 0. ss

(* Every span with its self time: its duration minus the part its
   child spans cover. *)
let with_self () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !finished;
  List.map (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id))) !finished

(* Span count and self time per layer (the span name up to its first
   dot). *)
let self_times () =
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let layer = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name in
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt layers layer) in
      Hashtbl.replace layers layer (c + 1, t +. self))
    (with_self ());
  List.sort compare (Hashtbl.fold (fun k (c, t) acc -> (k, c, t) :: acc) layers [])

let write_out path =
  let oc = open_out path in
  Printf.fprintf oc "id\tparent\tname\tstart_s\tend_s\tn\tminor_words\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\t%.0f\t%.0f\n" s.id s.parent s.name s.t0 s.t1 s.n
        s.words)
    (List.rev !finished);
  close_out oc
