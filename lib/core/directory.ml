open Bounds_model
module Index = Bounds_query.Index
module Vindex = Bounds_query.Vindex
module Plan = Bounds_query.Plan
module Search = Bounds_query.Search

(* --- read-only snapshots ---------------------------------------------- *)

module Snapshot = struct
  type t = { index : Index.t; vindex : Vindex.t; memo : Plan.memo }

  let of_index index =
    let vindex = Vindex.create index in
    { index; vindex; memo = Plan.memo_create vindex }

  let of_instance inst = of_index (Index.create inst)
  let index s = s.index
  let vindex s = s.vindex
  let memo s = s.memo
  let instance s = Index.instance s.index
  let query s q = Plan.memo_eval s.memo q
  let query_ids s q = Index.ids_of s.index (query s q)

  (* Read-only twins: never write the snapshot's memo, so any number of
     concurrent reader threads may evaluate over one published snapshot
     — the lock-free read path of the network server's
     snapshot-isolation discipline. *)
  let query_ro s q = Plan.memo_eval_ro s.memo q
  let query_ids_ro s q = Index.ids_of s.index (query_ro s q)

  let explain s q =
    let plan = Plan.plan s.vindex q in
    let result = Plan.exec plan in
    (plan, result)

  let search s ~base scope filter =
    Search.search ~vindex:s.vindex s.index ~base scope filter

  let validate ?(extensions = true) ?memoize schema s =
    Legality.check ~extensions ~index:s.index ~vindex:s.vindex
      ~memo:s.memo ?memoize schema (instance s)

  (* The raw structures, for oracles/benchmarks that differentially test
     them — the only sanctioned way past the snapshot surface. *)
  module Private = struct
    let index = index
    let vindex = vindex
    let memo = memo
  end
end

(* --- live sessions ----------------------------------------------------- *)

(* Query/update tallies are shared by every version of a session (the
   record travels through [{ t with ... }] untouched), so [stats] reports
   session totals no matter which version it is asked on. *)
type counters = {
  mutable queries : int;
  mutable applied : int;
  mutable rejected : int;
}

type t = {
  schema : Schema.t;
  monitor : Monitor.t;
  vindex : Vindex.t;
  memo : Plan.memo;
  extensions : bool;
  memoize : bool;
  counters : counters;
  store : (Update.op list -> t -> unit) option;
}

type commit_hook = Update.op list -> t -> unit

let open_ ?(extensions = true) ?(memoize = true) ?store schema inst =
  let index = Index.create inst in
  let vindex = Vindex.create index in
  let memo = Plan.memo_create vindex in
  (* The admission scan prewarms [memo] with the Figure-4 obligation
     queries, so the session's first [validate] is all cache hits. *)
  Monitor.create ~extensions ~index ~vindex
    ?memo:(if memoize then Some memo else None)
    ~memoize schema inst
  |> Result.map (fun monitor ->
         {
           schema;
           monitor;
           vindex;
           memo;
           extensions;
           memoize;
           counters = { queries = 0; applied = 0; rejected = 0 };
           store;
         })

let schema t = t.schema
let monitor t = t.monitor
let instance t = Monitor.instance t.monitor
let index t = Monitor.index t.monitor
let size t = Instance.size (instance t)

let query t q =
  t.counters.queries <- t.counters.queries + 1;
  Plan.memo_eval t.memo q

let query_ids t q = Index.ids_of (index t) (query t q)

let explain t q =
  t.counters.queries <- t.counters.queries + 1;
  let plan = Plan.plan t.vindex q in
  let result = Plan.exec plan in
  (plan, result)

let search t ~base scope filter =
  t.counters.queries <- t.counters.queries + 1;
  Search.search ~vindex:t.vindex (index t) ~base scope filter

let validate t =
  Legality.check ~extensions:t.extensions ~index:(index t) ~vindex:t.vindex
    ?memo:(if t.memoize then Some t.memo else None)
    ~memoize:t.memoize t.schema (instance t)

let apply t ops =
  let entries_before = size t in
  match Monitor.apply ops t.monitor with
  | Error reason ->
      t.counters.rejected <- t.counters.rejected + 1;
      (t, Admission.Rejected { reason; ops })
  | Ok (monitor, splices) ->
      (* the monitor already spliced the accepted Δs into its live index;
         carry the value tables across the same ops and the memo across
         the very rank-space edits the index performed *)
      let index = Monitor.index monitor in
      let vindex = Vindex.apply ~index ops t.vindex in
      let memo =
        if t.memoize then Plan.memo_apply ~vindex ~splices ops t.memo
        else Plan.memo_create vindex
      in
      let t' = { t with monitor; vindex; memo } in
      (* write-ahead durability: the hook must land the transaction
         before it is acknowledged — if it raises, [t] is still the
         session's current version and nothing was counted *)
      Option.iter (fun hook -> hook ops t') t.store;
      t.counters.applied <- t.counters.applied + 1;
      ( t',
        Admission.Accepted
          { lsn = None; ops; entries_before; entries_after = size t' } )

let replay t ops =
  match Monitor.replay ops t.monitor with
  | Error _ as e -> e
  | Ok (monitor, splices) ->
      (* same carry as [apply], minus admission and minus the durability
         hook: replay is for transactions that are already on disk *)
      let index = Monitor.index monitor in
      let vindex = Vindex.apply ~index ops t.vindex in
      let memo =
        if t.memoize then Plan.memo_apply ~vindex ~splices ops t.memo
        else Plan.memo_create vindex
      in
      t.counters.applied <- t.counters.applied + 1;
      Ok { t with monitor; vindex; memo }

(* --- batched trusted ingest --------------------------------------------- *)

module Bulk = struct
  type session = t

  type t = {
    mutable live : session;  (* incrementally-patched version *)
    mutable inst : Instance.t;  (* copy-on-write instance; batch regime only *)
    mutable batched : bool;
    mutable txns : int;
    mutable pending : int;  (* ops folded in since [start] *)
    base_n : int;  (* live instance size at [start] *)
  }

  (* Cost crossover.  One incremental splice pays a copy-on-write pass
     over every live structure — O(n) blits for the index, a hash-table
     copy for the value index — so k spliced transactions cost ~k·n.  A
     batch rebuild pays one full O(n + Δ) construction with heavier
     per-entry work (DFS numbering, hashing, admission-table recompute).
     Incremental therefore wins only while the transaction count stays
     under the rebuild's constant-factor ratio and Δ stays small next to
     the live instance. *)
  let rebuild_ratio = 8

  let start (t : session) =
    {
      live = t;
      inst = instance t;
      batched = false;
      txns = 0;
      pending = 0;
      base_n = size t;
    }

  let add b ops =
    let pending = b.pending + List.length ops in
    if
      (not b.batched)
      && (b.txns + 1 >= rebuild_ratio || 4 * pending >= b.base_n + 4)
    then begin
      b.batched <- true;
      b.inst <- instance b.live
    end;
    if b.batched then
      match Update.apply b.inst ops with
      | Error msg -> Error (Monitor.Bad_ops msg)
      | Ok inst ->
          b.inst <- inst;
          b.live.counters.applied <- b.live.counters.applied + 1;
          b.txns <- b.txns + 1;
          b.pending <- pending;
          Ok ()
    else
      match replay b.live ops with
      | Error _ as e -> e
      | Ok live ->
          b.live <- live;
          b.txns <- b.txns + 1;
          b.pending <- pending;
          Ok ()

  let finish b =
    if not b.batched then b.live
    else
      (* one bulk (re)build of every deferred structure, against the
         final instance — O(n + Δ) total instead of O(txns · n) *)
      let t = b.live in
      let index = Index.create b.inst in
      let vindex = Vindex.create index in
      let memo = Plan.memo_create vindex in
      let monitor =
        Monitor.of_index_trusted ~extensions:t.extensions t.schema index
      in
      { t with monitor; vindex; memo }
end

let snapshot t =
  { Snapshot.index = index t; vindex = t.vindex; memo = t.memo }

(* --- stats -------------------------------------------------------------- *)

type stats = {
  entries : int;
  queries : int;
  applied : int;
  rejected : int;
  memo_hits : int;
  memo_misses : int;
  memo_entries : int;
  memo_migrated : int;
  memo_dropped : int;
  intern : Intern.stat list;
}

let stats t =
  let memo_hits, memo_misses, memo_entries = Plan.memo_stats t.memo in
  let memo_migrated, memo_dropped = Plan.memo_migration_stats t.memo in
  {
    entries = size t;
    queries = t.counters.queries;
    applied = t.counters.applied;
    rejected = t.counters.rejected;
    memo_hits;
    memo_misses;
    memo_entries;
    memo_migrated;
    memo_dropped;
    intern = Intern.stats ();
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>entries: %d@ queries: %d@ updates: %d applied, %d rejected@ memo: \
     %d entries (%d hits, %d misses; migration carried %d, dropped %d)@ \
     intern:@   %a@]"
    s.entries s.queries s.applied s.rejected s.memo_entries s.memo_hits
    s.memo_misses s.memo_migrated s.memo_dropped Intern.pp_stats s.intern
