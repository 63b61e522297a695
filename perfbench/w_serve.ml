(* serve-mix: the real [spanner_cli serve] (default worker count) on a
   unix socket, driven by one client connection in a closed loop.

   Set-up packs an arena of log versions, starts the server, maps the
   arena with LOAD PATH, loads a small heap store with LOAD DOC and
   DEFINEs the queries.  Every round sends the same 61 requests:
   warm limit=10 reads on both stores, format=count reads, inline
   queries whose bodies are new to the server (plan-cache misses), and
   LOAD DOC writes that replace heap documents from a rotating set of
   texts, all loaded once at set-up.  Two [spanner_cli client] runs per
   round time a cold client from fork to answer.  The mapped file is
   never rewritten. *)

open Spanner_core
open Common
module Protocol = Spanner_serve.Protocol
module Registry = Spanner_serve.Registry
module Limits = Spanner_util.Limits

let heap_docs () = size 8 2
let heap_blocks () = size 8 2
let spares = 4

type kind =
  | Read of string * int * string  (** store, query, document *)
  | Count of string * int * string
  | Inline of string  (** heap document *)
  | Load of string * int  (** heap document, spare text *)

(* The request mix of one round: 27 + 12 reads, 3 + 6 counts, 3
   inline queries, 10 writes (see README.md).  The classes are sized
   so that op_p50 falls inside the arena requests (30 of 61, above 21
   faster heap requests) and op_p90 inside the writes, the slowest
   class; on the edge between two classes, a quantile moves with the
   shape of their tails from run to run. *)
let mix rng ~arena_docs =
  let heap = Array.init (heap_docs ()) (Printf.sprintf "d%d") in
  let at a i = a.(i mod Array.length a) in
  let drains = [| 0; 4 |] (* err, join *) in
  (* pair's take-10 absorbs about 10K runs on the compressed path: its
     arena reads would sit between the writes and the heap reads and
     put op_p90 on the edge of two classes (edit-session reads pair
     through Incr, the traced layer probe through Slp_spanner) *)
  let arena_queries = [| 0; 1; 2; 4 |] in
  (* which query reads which document is fixed; the seed only orders
     the requests *)
  let ks =
    List.concat
      [
        List.init 27 (fun i -> Read ("arena", at arena_queries i, at arena_docs (i * 7)));
        List.init 12 (fun i -> Read ("heap", i mod 5, at heap (i * 3)));
        List.init 6 (fun i -> Count ("heap", at drains i, at heap ((i * 3) + 1)));
        List.init 3 (fun i -> Count ("arena", at drains i, at arena_docs ((i * 5) + 1)));
        List.init 3 (fun i -> Inline (at heap i));
        List.init 10 (fun i -> Load (at heap ((i * 3) + 2), i mod spares));
      ]
  in
  let a = Array.of_list ks in
  Gen.shuffle rng a;
  a

type inputs = {
  arena_path : string;
  arena_models : (string, Gen.block array) Hashtbl.t;
  arena_docs : string array;
  heap : Gen.block array array;
  spare : Gen.block array array;
  kinds : kind array;
}

let make_inputs ctx rng rep =
  let db, models, _ = W_packed.build_db rng ~base_n:(size 16 4) ~n:(size 16 4) in
  let arena_path = Filename.concat ctx.work (Printf.sprintf "serve-%d.slpar" rep) in
  ignore (Trace.span "corpus.pack" (fun _ -> Corpus.pack db ~shards:1 arena_path));
  let arena_docs = Array.of_list (List.filter (fun n -> n <> "pool") (Doc_db.names db)) in
  let heap = Array.init (heap_docs ()) (fun _ -> Gen.blocks rng (heap_blocks ())) in
  let spare = Array.init spares (fun _ -> Gen.blocks rng (heap_blocks ())) in
  { arena_path; arena_models = models; arena_docs; heap; spare; kinds = mix rng ~arena_docs }

(* The request payload of operation [i] of round [k]: inline bodies
   name their user variable after (k, i), so every one is new. *)
let payload inp k i =
  match inp.kinds.(i) with
  | Read (store, qi, doc) ->
      Printf.sprintf "QUERY %s %s %s limit=10" Oracle.queries.(qi).name store doc
  | Count (store, qi, doc) ->
      Printf.sprintf "QUERY %s %s %s format=count" Oracle.queries.(qi).name store doc
  | Inline doc ->
      Printf.sprintf "QUERY - heap %s limit=10\n%s" doc (Oracle.err_body (Printf.sprintf "u%d_%d" k i))
  | Load (doc, j) -> Printf.sprintf "LOAD heap DOC %s\n%s" doc (Gen.text_of inp.spare.(j))

let setup_payloads inp =
  (Printf.sprintf "LOAD arena PATH %s" inp.arena_path
  :: List.init (heap_docs ()) (fun i ->
         Printf.sprintf "LOAD heap DOC d%d\n%s" i (Gen.text_of inp.heap.(i))))
  @ List.init spares (fun i ->
        Printf.sprintf "LOAD heap DOC spare%d\n%s" i (Gen.text_of inp.spare.(i)))
  @ Array.to_list
      (Array.map (fun (q : Oracle.query) -> Printf.sprintf "DEFINE %s\n%s" q.name q.body) Oracle.queries)

(* ------------------------------------------------------------------ *)
(* The live server *)

type server = { pid : int; conn : Protocol.conn; fd : Unix.file_descr }

let live : server option ref = ref None

let stop s =
  (try Protocol.write_frame_conn s.conn "SHUTDOWN" with _ -> ());
  (try ignore (Protocol.read_frame_conn s.conn) with _ -> ());
  (try Unix.close s.fd with _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  live := None

(* A run that ends abnormally (an exception, a signal) still ends the
   server it started, without speaking the protocol: the connection may
   be in the middle of a response. *)
let () =
  at_exit (fun () ->
      match !live with
      | Some s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
          live := None
      | None -> ())

let start ctx sock =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process ctx.cli [| ctx.cli; "serve"; "unix:" ^ sock |] null null null in
  Unix.close null;
  let deadline = Trace.now () +. 20. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception (Unix.Unix_error _ as e) ->
        Unix.close fd;
        if Trace.now () > deadline then raise e;
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  let s = { pid; conn = Protocol.conn_of_fd fd; fd } in
  live := Some s;
  s

(* One request and its whole response.  [mark] is called when the
   first tuple frame arrives. *)
let request s ~mark payload =
  Protocol.write_frame_conn s.conn payload;
  let read () =
    match Protocol.read_frame_conn s.conn with
    | Some f -> f
    | None -> failwith "server closed the connection"
  in
  let head = read () in
  if String.starts_with ~prefix:"OK stream" head then
    let rec go acc =
      let f = read () in
      if String.starts_with ~prefix:"END" f then (head, List.rev acc, f)
      else if String.starts_with ~prefix:"ERR" f then failwith f
      else begin
        mark ();
        go (List.rev_append (String.split_on_char '\n' f) acc)
      end
    in
    go []
  else if String.starts_with ~prefix:"ERR" head then failwith head
  else (head, [], head)

let stats_ratios s =
  let _, _, body = request s ~mark:ignore "STATS" in
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when List.mem (String.sub line 0 i) [ "plan_cache"; "doc_cache"; "engine_cache" ] ->
          Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) " hits=%d misses=%d"
            (fun h m -> Some (String.sub line 0 i, (h, m)))
      | _ -> None)
    (String.split_on_char '\n' body)

(* ------------------------------------------------------------------ *)

type state = {
  inp : inputs;
  server : server;
  sock : string;
  models : (string, Gen.block array) Hashtbl.t;
}

let sock_path ctx rep = Filename.concat ctx.work (Printf.sprintf "s%d.sock" rep)

let setup ctx rep =
  let rng = Gen.rng ctx.seed 4 in
  let inp = make_inputs ctx rng rep in
  let sock = sock_path ctx rep in
  let server = start ctx sock in
  List.iter (fun p -> ignore (request server ~mark:ignore p)) (setup_payloads inp);
  let models = Hashtbl.create 32 in
  Array.iteri (fun i bs -> Hashtbl.replace models (Printf.sprintf "d%d" i) bs) inp.heap;
  { inp; server; sock; models }

let model st store doc =
  if store = "arena" then Hashtbl.find st.inp.arena_models doc else Hashtbl.find st.models doc

let tuples_of lines =
  List.filter_map
    (fun l ->
      if String.length l > 2 && String.sub l 0 2 = "R " then
        Some (Oracle.of_printed (String.sub l 2 (String.length l - 2)))
      else None)
    lines

let count_of head = Scanf.sscanf head "OK count %d" Fun.id

let op m st k i =
  let p = payload st.inp k i in
  let kind = st.inp.kinds.(i) in
  Measure.op ~cpu:false m
    (fun mark ->
      let t0 = Trace.now () in
      let ((_, lines, _) as r) = request st.server ~mark p in
      let n = List.length lines in
      (r, n, match kind with Load _ -> Some (Trace.now () -. t0) | _ -> None))
    (fun (head, lines, _) ->
      match kind with
      | Read (store, qi, doc) ->
          Oracle.check Oracle.queries.(qi) (model st store doc) ~expect:(`Take 10) (tuples_of lines)
      | Count (store, qi, doc) -> Oracle.check_count Oracle.queries.(qi) (model st store doc) (count_of head)
      | Inline doc ->
          Oracle.check
            (Oracle.err_as (Printf.sprintf "u%d_%d" k i))
            (model st "heap" doc) ~expect:(`Take 10) (tuples_of lines)
      | Load (doc, j) ->
          Hashtbl.replace st.models doc st.inp.spare.(j);
          if String.starts_with ~prefix:"OK loaded" head then Ok ()
          else Error ("LOAD DOC answered " ^ head))

let cli ctx m st i =
  let doc = Printf.sprintf "d%d" i in
  let q = Oracle.err in
  Measure.cli m
    [| ctx.cli; "client"; "unix:" ^ st.sock; "QUERY"; "err"; "heap"; doc; "format=count" |]
    (fun out ->
      let want = Printf.sprintf "OK count %d" (Oracle.count q (Hashtbl.find st.models doc)) in
      if List.mem want (String.split_on_char '\n' out) then Ok ()
      else Error (Printf.sprintf "cli client printed %S" out))

(* The server's answers for the cross-engine check, from a store of
   its own. *)
let server_answers st (bs : Gen.block array) =
  ignore (request st.server ~mark:ignore ("LOAD cross DOC doc\n" ^ Gen.text_of bs));
  fun { q; _ } ->
    let _, lines, _ = request st.server ~mark:ignore (Printf.sprintf "QUERY %s cross doc" q.name) in
    [ ("server", tuples_of lines) ]

let live_rounds ctx m st ~seconds =
  let ratios0 = stats_ratios st.server in
  let cpu () = Measure.proc_cpu st.server.pid in
  let rss () = Measure.peak_rss_mb (string_of_int st.server.pid) in
  Measure.rounds ~traced:false ~seconds ~cpu ~rss ~rss_at:26 m (fun k ->
      for i = 0 to Array.length st.inp.kinds - 1 do
        op m st k i
      done;
      cli ctx m st 0;
      cli ctx m st 1);
  List.map
    (fun (name, (h1, m1)) ->
      let h0, m0 = List.assoc name ratios0 in
      let h = h1 - h0 and mi = m1 - m0 in
      (name, float_of_int h /. float_of_int (max 1 (h + mi))))
    (stats_ratios st.server)

(* ------------------------------------------------------------------ *)
(* In-process replay of the request sequence, for the traced run.

   The replay calls Protocol, Registry and Cursor the way a server
   session does (parse, plan-cache probe, native cursor or decompress +
   optimizer cursor, drain, frame encode; Registry.load_doc for
   writes), with a span around each call, so the trace splits a
   request across the serve layers.  Answers are not re-checked here:
   the live rounds check the same requests against the oracle. *)

let window = 64

let query reg emit source ~store ~doc (opts : Protocol.opts) =
  let limits = Registry.effective_limits reg opts in
  let normalized, plan =
    Trace.span "registry.plan" (fun _ -> Registry.plan_normalized reg source)
  in
  let gauge = Limits.start limits in
  let cursor =
    match
      Trace.span "registry.native_cursor" (fun sp ->
          (* tagged: the arena reads are the ones the native path serves *)
          if store = "arena" then Trace.set_n sp 1.;
          Registry.native_cursor reg ~gauge ~normalized ~store ~doc plan)
    with
    | Some c -> c
    | None ->
        let text = Trace.span "registry.doc_text" (fun _ -> Registry.doc_text reg ~gauge ~store ~doc) in
        Trace.span "optimizer.cursor" (fun _ -> Optimizer.cursor ~limits plan text)
  in
  if opts.offset > 0 then Cursor.drop cursor opts.offset;
  let cursor = match opts.limit with Some k -> Cursor.take cursor k | None -> cursor in
  match opts.format with
  | Protocol.Count ->
      let n = Trace.span "cursor.serve_count" (fun _ -> Cursor.cardinal cursor) in
      emit (Printf.sprintf "OK count %d" n)
  | Protocol.First -> (
      match Cursor.next cursor with
      | Some t -> emit (Format.asprintf "OK first %a" Span_tuple.pp t)
      | None -> emit "OK first")
  | Protocol.Tuples ->
      emit (Format.asprintf "OK stream %a" Variable.pp_set (Optimizer.schema plan));
      let ts = Trace.span "cursor.serve_drain" (fun _ -> Cursor.to_list cursor) in
      let buf = Buffer.create 256 in
      List.iteri
        (fun i t ->
          if i > 0 && i mod window = 0 then begin
            emit (Buffer.sub buf 0 (Buffer.length buf - 1));
            Buffer.clear buf
          end;
          Buffer.add_string buf (Format.asprintf "R %a\n" Span_tuple.pp t))
        ts;
      if Buffer.length buf > 0 then emit (Buffer.sub buf 0 (Buffer.length buf - 1));
      emit (Printf.sprintf "END %d" (List.length ts))

(* One request, answered into a buffer of encoded frames. *)
let handle reg payload =
  let out = Buffer.create 1024 in
  let emit s = Trace.span "protocol.frame_encode" (fun _ -> Protocol.encode_frame out s) in
  Trace.span "session.request" (fun _ ->
      match Trace.span "protocol.parse_request" (fun _ -> Protocol.parse_request payload) with
      | Protocol.Define { name; body } ->
          ignore (Registry.define reg ~name ~body);
          emit ("OK defined " ^ name)
      | Protocol.Load_doc { store; doc; body } ->
          let bytes, nodes =
            Trace.span "registry.load_doc" (fun _ -> Registry.load_doc reg ~store ~doc ~text:body)
          in
          emit (Printf.sprintf "OK loaded %s/%s bytes=%d store_nodes=%d" store doc bytes nodes)
      | Protocol.Load_path { store; path } ->
          let docs = Registry.load_path reg ~store ~path in
          emit (Printf.sprintf "OK loaded %s docs=%d" store docs)
      | Protocol.Query { source; store; doc; opts } -> query reg emit source ~store ~doc opts
      | _ -> emit "OK");
  Buffer.contents out

let registry (inp : inputs) =
  let reg = Registry.create ~defaults:(Limits.make ()) () in
  List.iter (fun p -> ignore (handle reg p)) (setup_payloads inp);
  reg

let hits (c : Registry.cache_stats) = (c.hits, c.misses)

(* Replays whole rounds of the request sequence for [seconds] (at
   least two: one untraced, one traced); returns the cache hit ratios
   over the replay.  [m.rounds] is replaced by the replay's rounds, so
   the tracing overhead compares replayed requests only. *)
let replay (m : Measure.t) inp ~seconds =
  let reg = registry inp in
  let caches () =
    [
      ("plan_cache", hits (Registry.plan_cache_stats reg));
      ("doc_cache", hits (Registry.doc_cache_stats reg));
      ("engine_cache", hits (Registry.engine_cache_stats reg));
    ]
  in
  let before = caches () in
  let rm = Measure.create () in
  Measure.rounds ~traced:true ~seconds ~min_ops:0 rm (fun k ->
      for i = 0 to Array.length inp.kinds - 1 do
        Measure.op rm
          (fun _ -> (handle reg (payload inp k i), 0, None))
          (fun frames ->
            match Protocol.decode_frames frames with
            | fs when List.exists (fun f -> String.starts_with ~prefix:"ERR" f) fs ->
                Error "replay: ERR response"
            | _ -> Ok ())
      done);
  m.rounds <- rm.rounds;
  m.attempted <- m.attempted + rm.attempted;
  m.failed <- m.failed + rm.failed;
  m.errors <- m.errors @ rm.errors;
  List.map2
    (fun (name, (h0, m0)) (_, (h1, m1)) ->
      let h = h1 - h0 and mi = m1 - m0 in
      (name, float_of_int h /. float_of_int (max 1 (h + mi))))
    before (caches ())

let run ctx =
  let start rep =
    Option.iter stop !live;
    setup ctx rep
  in
  let st, first = time_setup ctx start 1 in
  (* a set-up restarts the server, so its repetitions come after the
     rounds *)
  let _, setup_median = setup_timer ctx start ~first in
  let m = Measure.create () in
  let seconds = if ctx.traced then ctx.seconds /. 2. else ctx.seconds in
  let ratios = live_rounds ctx m st ~seconds in
  let cross = st.inp.heap.(0) in
  Trace.on := ctx.traced;
  let cqs = compile_all () in
  Trace.on := false;
  let problems = cross_check ctx cqs cross ~extra:(server_answers st cross) () in
  stop st.server;
  let setup_s = setup_median () in
  Option.iter stop !live;
  if ctx.traced then ignore (replay m st.inp ~seconds);
  {
    m;
    setup_s;
    problems;
    inputs = Array.append st.inp.heap [| Hashtbl.find st.inp.arena_models "v01" |];
    about =
      [
        Printf.sprintf "arena: %d documents of %d bytes; heap: %d documents of %d bytes; %d requests per round"
          (Array.length st.inp.arena_docs)
          (String.length (Gen.text_of (Hashtbl.find st.inp.arena_models "v01")))
          (Array.length st.inp.heap) (String.length (Gen.text_of st.inp.heap.(0)))
          (Array.length st.inp.kinds);
      ];
    cqs;
    layer_counts =
      List.map
        (fun (cache, r) ->
          ((match cache with
           | "plan_cache" -> "registry.plan_hit_ratio"
           | "doc_cache" -> "registry.doc_hit_ratio"
           | _ -> "registry.engine_hit_ratio"),
            r))
        ratios;
  }
