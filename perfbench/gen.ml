(* Seeded synthetic server logs with ground truth.

   A document is a sequence of 16-line blocks.  Every block holds the
   same sixteen line shapes (level, action and the digit/letter run
   lengths of every field) in a seed-dependent order, with
   seed-dependent letters and digits.  So every block has the same
   byte length and every query has the same number of answers per
   block, whatever the seed: seeds change the content and the order,
   never the amount of work.  This is what keeps runs with different
   seeds comparable. *)

type line = {
  lvl : char;
  user_l : string;  (** letters of the user token *)
  user_d : string;  (** digits of the user token *)
  action : string;
  dir : string;  (** digits after [/d] *)
  file : string;  (** digits after [/f] *)
  code : string;
}

type block = { lines : line array; text : string; offs : int array }

(* level, action, user letters, user digits, dir digits, file digits *)
let shapes =
  [|
    ('E', "write", 4, 2, 1, 2);
    ('E', "read", 5, 1, 2, 1);
    ('W', "write", 3, 2, 1, 1);
    ('W', "read", 6, 1, 1, 2);
    ('W', "list", 4, 3, 2, 2);
    ('W', "delete", 5, 2, 1, 1);
    ('I', "write", 4, 1, 2, 1);
    ('I', "write", 3, 3, 1, 2);
    ('I', "read", 5, 2, 1, 1);
    ('I', "read", 4, 2, 2, 2);
    ('I', "read", 6, 1, 1, 1);
    ('I', "read", 3, 1, 1, 3);
    ('I', "list", 5, 3, 2, 1);
    ('I', "list", 4, 2, 1, 2);
    ('I', "delete", 5, 1, 2, 2);
    ('I', "list", 3, 2, 1, 1);
  |]

let lines_per_block = Array.length shapes

let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let letters rng n = String.init n (fun _ -> Char.chr (97 + Random.State.int rng 26))
let digits rng n = String.init n (fun _ -> Char.chr (48 + Random.State.int rng 10))

let codes = function
  | 'E' -> [| "500"; "502"; "503" |]
  | 'W' -> [| "400"; "403"; "404" |]
  | _ -> [| "200"; "201"; "204" |]

let render l =
  Printf.sprintf "%c %s%s %s /d%s/f%s %s;" l.lvl l.user_l l.user_d l.action l.dir l.file
    l.code

let block rng =
  let order = Array.init lines_per_block Fun.id in
  shuffle rng order;
  let lines =
    Array.map
      (fun i ->
        let lvl, action, ul, ud, dd, fd = shapes.(i) in
        let cs = codes lvl in
        {
          lvl;
          user_l = letters rng ul;
          user_d = digits rng ud;
          action;
          dir = digits rng dd;
          file = digits rng fd;
          code = cs.(Random.State.int rng (Array.length cs));
        })
      order
  in
  let texts = Array.map render lines in
  let offs = Array.make lines_per_block 0 in
  for i = 1 to lines_per_block - 1 do
    offs.(i) <- offs.(i - 1) + String.length texts.(i - 1)
  done;
  { lines; text = String.concat "" (Array.to_list texts); offs }

let blocks rng n = Array.init n (fun _ -> block rng)

(* Every block has this many bytes. *)
let block_len =
  Array.fold_left
    (fun acc (_, action, ul, ud, dd, fd) ->
      acc + String.length (Printf.sprintf "E  %s /d/f 200;" action) + ul + ud + dd + fd)
    0 shapes

let text_of bs = String.concat "" (Array.to_list (Array.map (fun b -> b.text) bs))

(* [remove a i] and [insert a i x] are the benchmark's own model of a
   block-aligned CDE edit. *)
let remove a i = Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))

let insert a i x =
  Array.concat [ Array.sub a 0 i; [| x |]; Array.sub a i (Array.length a - i) ]
