(* Little-endian Patricia tries after Okasaki & Gill, "Fast Mergeable
   Integer Maps".  [Branch (p, m, l, r)]: [m] is a one-bit branching
   mask, [p] the common prefix of every key below (bits strictly below
   [m]); keys with bit [m] clear live in [l].  Lookup inspects one bit
   per node, insertion copies only the spine above the touched leaf. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of int * int * 'a t * 'a t

let empty = Empty
let is_empty t = t = Empty

let[@inline] zero_bit k m = k land m = 0
let[@inline] lowest_bit x = x land -x
let[@inline] mask k m = k land (m - 1)
let[@inline] match_prefix k p m = mask k m = p

let rec find_opt k = function
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch (p, m, l, r) ->
      if not (match_prefix k p m) then None
      else if zero_bit k m then find_opt k l
      else find_opt k r

let mem k t = find_opt k t <> None

(* Combine two trees whose prefixes are known to differ. *)
let join p0 t0 p1 t1 =
  let m = lowest_bit (p0 lxor p1) in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

let rec add k v = function
  | Empty -> Leaf (k, v)
  | Leaf (j, _) as t -> if j = k then Leaf (k, v) else join k (Leaf (k, v)) j t
  | Branch (p, m, l, r) as t ->
      if match_prefix k p m then
        if zero_bit k m then Branch (p, m, add k v l, r)
        else Branch (p, m, l, add k v r)
      else join k (Leaf (k, v)) p t

let le_compare x y =
  let d = x lxor y in
  if d = 0 then 0 else if zero_bit x (lowest_bit d) then -1 else 1

(* A sorted slice branches on the lowest bit its first and last keys
   differ in; the keys with that bit clear are a prefix of the slice. *)
let of_sorted keys values =
  let rec build lo hi =
    if hi - lo = 1 then Leaf (keys.(lo), values.(lo))
    else
      let m = lowest_bit (keys.(lo) lxor keys.(hi - 1)) in
      let l = ref lo and h = ref (hi - 1) in
      (* first index in (lo, hi - 1] with bit [m] set *)
      while !h - !l > 1 do
        let mid = (!l + !h) / 2 in
        if zero_bit keys.(mid) m then l := mid else h := mid
      done;
      Branch (mask keys.(lo) m, m, build lo !h, build !h hi)
  in
  let n = Array.length keys in
  if n <> Array.length values then invalid_arg "Pmap.of_sorted";
  if n = 0 then Empty else build 0 n

(* Smart constructor: collapse empty sides so the trie never holds a
   one-child branch. *)
let branch p m l r =
  match (l, r) with Empty, t | t, Empty -> t | _ -> Branch (p, m, l, r)

let rec remove k = function
  | Empty -> Empty
  | Leaf (j, _) as t -> if j = k then Empty else t
  | Branch (p, m, l, r) as t ->
      if not (match_prefix k p m) then t
      else if zero_bit k m then branch p m (remove k l) r
      else branch p m l (remove k r)

let update k f t =
  match f (find_opt k t) with Some v -> add k v t | None -> remove k t
