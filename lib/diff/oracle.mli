(** The oracle registry: named pairs of independently-implemented
    behaviours that must agree.

    Each oracle bundles a generator (fresh random case from a seeded
    state), a deterministic checker (does the case expose a
    discrepancy?), and documentation.  The checker is total: crashes in
    either implementation under comparison are reported as
    discrepancies, not propagated. *)

type outcome =
  | Agree
  | Disagree of string
      (** human-readable account of the discrepancy, shown (with the
          shrunk case) in fuzz reports *)

type t = {
  name : string;
  doc : string;  (** one-line description, shown by [ldapschema fuzz --list] *)
  generate : seed:int -> Random.State.t -> Case.t;
  check : Case.t -> outcome;
}

(** All registered oracles, in registration order. *)
val all : t list

val names : string list
val find : string -> t option

(** [disagrees o c] — [check] as a shrinker predicate. *)
val disagrees : t -> Case.t -> bool

(** [ref_parse_changes ~typing inst text] — the change-record parser
    the write path used before DNs resolved by top-down descent: a table
    from every entry's normalized DN to its id, rebuilt over the whole
    instance per document (duplicates resolve to the largest id).  Plain
    records only — one [attr: value] per line, no folding or base64.
    The reference side of the [dn-resolve] oracle, and the [table]
    before-series of bench P8. *)
val ref_parse_changes :
  typing:Bounds_model.Typing.t ->
  Bounds_model.Instance.t ->
  string ->
  (Bounds_model.Update.op list, string) result
