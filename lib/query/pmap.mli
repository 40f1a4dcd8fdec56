(** Persistent int-keyed maps (Okasaki–Gill little-endian Patricia
    tries).

    The index and value-index version steps need maps that share
    structure between versions: updating [k] copies the O(log n) path to
    [k]'s leaf and shares everything else, so a transaction's version
    step costs O(|Δ| log n) instead of the O(n) [Hashtbl.copy] it
    replaces.  Keys must be non-negative (entry ids, interned string
    ids, chunk uids — all dense counters here). *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val mem : int -> 'a t -> bool
val find_opt : int -> 'a t -> 'a option

(** [add k v t] binds [k] to [v], replacing any previous binding. *)
val add : int -> 'a -> 'a t -> 'a t

(** [remove k t] — returns [t] itself when [k] is unbound. *)
val remove : int -> 'a t -> 'a t

(** [update k f t] — [f] receives the current binding; [Some v] rebinds,
    [None] removes. *)
val update : int -> ('a option -> 'a option) -> 'a t -> 'a t

(** The trie's in-order key sequence: keys compare by their lowest
    differing bit, clear first. *)
val le_compare : int -> int -> int

(** [of_sorted keys values] binds [keys.(i)] to [values.(i)] in one
    pass, allocating each node once; the result is structurally equal to
    folding {!add} over the bindings.  [keys] must be distinct,
    non-negative and sorted by {!le_compare}.  Raises [Invalid_argument]
    if the arrays differ in length. *)
val of_sorted : int array -> 'a array -> 'a t
