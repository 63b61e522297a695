(* The benchmark's own answer key.

   Every query's answers are computed from the generator's ground
   truth (the fields of each log line), never from the library: a
   tuple is a list of (variable, left, right) with 1-based half-open
   spans, sorted by variable name.  Checks need no stored copy of any
   output: an answer is right when its tuples are distinct, each one
   is in the query's answer on the benchmark's own model of the
   document, and there are as many as the model says. *)

type tuple = (string * int * int) list

type query = {
  name : string;
  body : string;
  algebra : bool;  (** parsed as algebra (through the optimizer) *)
  drains : bool;
      (** few answers and little ambiguity: full drains and counts fit a
          run (pair has one answer per line, but its automaton absorbs
          hundreds of runs per answer) *)
  on_line : int -> Gen.line -> tuple list;
      (** the answers inside one line, given its 0-based offset *)
  skips_first_line : bool;  (** the pattern needs a [;] before the line *)
}

(* 0-based field positions inside a line (see Gen.render) *)
type fields = { u_s : int; u_k : int; u_e : int; a_s : int; a_e : int; p : int; q : int; c : int }

let fields (l : Gen.line) =
  let u_s = 2 in
  let u_k = u_s + String.length l.user_l in
  let u_e = u_k + String.length l.user_d in
  let a_s = u_e + 1 in
  let a_e = a_s + String.length l.action in
  let p = a_e + 1 in
  let q = p + 2 + String.length l.dir in
  let c = q + 2 + String.length l.file + 1 in
  { u_s; u_k; u_e; a_s; a_e; p; q; c }

let span o a b = (o + a + 1, o + b + 1)
let bind v (l, r) = (v, l, r)
let sort_tuple t = List.sort compare t

(* [letters_then_digits] is every [a-z]+[0-9]+ factor of a token whose
   letters are [ls, k) and digits [k, e). *)
let letters_then_digits v o ls k e =
  List.concat_map
    (fun i -> List.init (e - k) (fun d -> [ bind v (span o i (k + d + 1)) ]))
    (List.init (k - ls) (fun d -> ls + d))

let all_factors v o s e =
  List.concat_map
    (fun i -> List.init (e - i) (fun d -> [ bind v (span o i (i + d + 1)) ]))
    (List.init (e - s) (fun d -> s + d))

let err_tuple u o (l : Gen.line) =
  let f = fields l in
  sort_tuple [ bind u (span o f.u_s f.u_e); bind "act" (span o f.a_s f.a_e) ]

let err_body u = Printf.sprintf "(.*;)?E !%s{[a-z]+[0-9]+} !act{[a-z]+} .*" u

(* The err query under another name for its user variable: the same
   automaton, a different normalized text (a plan-cache miss). *)
let err_as u =
  {
    name = "err";
    body = err_body u;
    algebra = false;
    drains = true;
    on_line = (fun o l -> if l.lvl = 'E' then [ err_tuple u o l ] else []);
    skips_first_line = false;
  }

let err = err_as "u"

let user =
  {
    name = "user";
    body = ".*!u{[a-z]+[0-9]+}.*";
    algebra = false;
    drains = false;
    on_line =
      (fun o l ->
        let f = fields l in
        letters_then_digits "u" o f.u_s f.u_k f.u_e
        @ letters_then_digits "u" o (f.p + 1) (f.p + 2) f.q
        @ letters_then_digits "u" o (f.q + 1) (f.q + 2) (f.c - 1));
    skips_first_line = false;
  }

let num =
  {
    name = "num";
    body = ".*!x{[0-9]+}.*";
    algebra = false;
    drains = false;
    on_line =
      (fun o l ->
        let f = fields l in
        all_factors "x" o f.u_k f.u_e
        @ all_factors "x" o (f.p + 2) f.q
        @ all_factors "x" o (f.q + 2) (f.c - 1)
        @ all_factors "x" o f.c (f.c + 3));
    skips_first_line = false;
  }

let pair =
  {
    name = "pair";
    body = ".*;!l{[IWE]} !u{[a-z]+[0-9]+} !a{[a-z]+} !p{[/a-z0-9]+} [0-9]+;.*";
    algebra = false;
    drains = false;
    on_line =
      (fun o l ->
        let f = fields l in
        [
          sort_tuple
            [
              bind "l" (span o 0 1);
              bind "u" (span o f.u_s f.u_e);
              bind "a" (span o f.a_s f.a_e);
              bind "p" (span o f.p (f.c - 1));
            ];
        ]);
    skips_first_line = true;
  }

let join =
  {
    name = "join";
    body =
      "pi[u](rgx:\"(.*;)?E !u{[a-z]+[0-9]+} !act{[a-z]+} .*\" & rgx:\".*!act{write}.*\")";
    algebra = true;
    drains = true;
    on_line =
      (fun o l ->
        if l.lvl = 'E' && l.action = "write" then
          let f = fields l in
          [ [ bind "u" (span o f.u_s f.u_e) ] ]
        else []);
    skips_first_line = false;
  }

let queries = [| err; user; num; pair; join |]

(* ------------------------------------------------------------------ *)
(* Answers on a document model (an array of blocks) *)

let line_answers q (bs : Gen.block array) bi li =
  if q.skips_first_line && bi = 0 && li = 0 then []
  else
    let b = bs.(bi) in
    q.on_line ((bi * Gen.block_len) + b.offs.(li)) b.lines.(li)

let count q bs =
  let n = ref 0 in
  Array.iteri
    (fun bi (b : Gen.block) ->
      Array.iteri (fun li _ -> n := !n + List.length (line_answers q bs bi li)) b.lines)
    bs;
  !n

let all q bs =
  List.concat
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun bi (b : Gen.block) ->
               Array.to_list (Array.mapi (fun li _ -> line_answers q bs bi li) b.lines))
             bs)))

(* Membership: every answer lies inside one line, found from its
   leftmost position. *)
let mem q (bs : Gen.block array) (t : tuple) =
  match t with
  | [] -> false
  | _ ->
      let left = List.fold_left (fun m (_, l, _) -> min m l) max_int t - 1 in
      let bi = left / Gen.block_len in
      bi >= 0
      && bi < Array.length bs
      &&
      let rel = left - (bi * Gen.block_len) in
      let offs = bs.(bi).offs in
      let li = ref 0 in
      while !li + 1 < Array.length offs && offs.(!li + 1) <= rel do
        incr li
      done;
      List.mem t (line_answers q bs bi !li)

(* ------------------------------------------------------------------ *)
(* Program outputs in the oracle's form *)

let of_span_tuple t =
  sort_tuple
    (List.map
       (fun (v, s) ->
         (Spanner_core.Variable.name v, Spanner_core.Span.left s, Spanner_core.Span.right s))
       (Spanner_core.Span_tuple.bindings t))

(* A tuple as the server prints it: [(u ↦ [3,8⟩, act ↦ [9,14⟩)]. *)
let of_printed s =
  let close = "\xe2\x9f\xa9" (* ⟩ *) in
  let n = String.length s and m = String.length close in
  let rec pieces acc i =
    match
      let rec find j = if j + m > n then None else if String.sub s j m = close then Some j else find (j + 1) in
      find i
    with
    | None -> List.rev acc
    | Some j -> pieces (String.sub s i (j - i) :: acc) (j + m)
  in
  sort_tuple
    (List.map
       (fun piece ->
         let piece = String.trim piece in
         let piece =
           if piece <> "" && (piece.[0] = '(' || piece.[0] = ',') then
             String.trim (String.sub piece 1 (String.length piece - 1))
           else piece
         in
         let name = String.sub piece 0 (String.index piece ' ') in
         let lb = String.index piece '[' in
         Scanf.sscanf (String.sub piece (lb + 1) (String.length piece - lb - 1)) "%d,%d"
           (fun l r -> (name, l, r)))
       (pieces [] 0))

(* [check q bs ~expect ts]: [ts] are distinct answers of [q] on [bs],
   [expect] of them ([`All] = the whole answer, [`Take k] = the first
   [min k total]). *)
let check q bs ~expect (ts : tuple list) =
  let sorted = List.sort compare ts in
  let rec distinct = function a :: (b :: _ as r) -> a <> b && distinct r | _ -> true in
  let total = count q bs in
  let want = match expect with `All -> total | `Take k -> min k total in
  let got = List.length ts in
  if got <> want then Error (Printf.sprintf "%s: %d tuples, expected %d" q.name got want)
  else if not (distinct sorted) then Error (Printf.sprintf "%s: duplicate tuples" q.name)
  else
    match List.find_opt (fun t -> not (mem q bs t)) ts with
    | Some _ -> Error (Printf.sprintf "%s: a tuple outside the answer" q.name)
    | None -> Ok ()

let check_count q bs n =
  let total = count q bs in
  if n = total then Ok () else Error (Printf.sprintf "%s: count %d, expected %d" q.name n total)
