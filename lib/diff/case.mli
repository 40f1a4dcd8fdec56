(** Fuzz cases: the universal counterexample tuple.

    Every oracle draws its input from (a subset of) one record: a schema,
    an instance, a transaction, a query, a filter, and a raw text payload.
    A case is what the generic {!Shrink} minimizer walks over and what the
    regression corpus persists.

    Serialization is a single s-expression and is {e faithful} by
    construction — entries, values, filters and queries are encoded
    structurally (not through the LDIF/filter/query printers, which are
    themselves under test), so a counterexample exposing a printer bug
    survives the trip to disk.  The schema is the one exception: it is
    stored as spec-language text, whose round-trip is property-tested
    independently. *)

open Bounds_model
open Bounds_core
open Bounds_query

type t = {
  oracle : string;  (** name of the oracle this case feeds *)
  seed : int;  (** generator seed, for provenance *)
  schema : Schema.t option;
  instance : Instance.t option;
  ops : Update.op list;
  query : Query.t option;
  filter : Filter.t option;
  text : string option;
}

val make :
  oracle:string ->
  ?seed:int ->
  ?schema:Schema.t ->
  ?instance:Instance.t ->
  ?ops:Update.op list ->
  ?query:Query.t ->
  ?filter:Filter.t ->
  ?text:string ->
  unit ->
  t

(** Total structural weight (entries + pairs + ops + query/filter nodes +
    schema size + text length): the measure the shrinker decreases. *)
val size : t -> int

val equal : t -> t -> bool

(** Structural equality of update ops (entries compared with
    {!Entry.equal}). *)
val op_equal : Update.op -> Update.op -> bool

(** Corpus serialization. *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** Human-readable multi-line rendering for fuzz reports. *)
val pp : Format.formatter -> t -> unit

(** {2 Structural sub-codecs} (exposed for tests) *)

val sexp_of_filter : Filter.t -> Sexp.t
val filter_of_sexp : Sexp.t -> (Filter.t, string) result
val sexp_of_query : Query.t -> Sexp.t
val query_of_sexp : Sexp.t -> (Query.t, string) result
