open Bounds_core

let schema_file = "schema.spec"
let checkpoint_file = "checkpoint.ckpt"
let wal_file = "wal.log"
let delta_file = "delta.log"

type tail = Clean | Recovered_at of { offset : int; reason : string }

type report = {
  checkpoint_lsn : int;
  replayed : int;
  skipped : int;
  tail : tail;
  delta_segments : int;
  delta_replayed : int;
  delta_tail : tail;
}

(* What a replication feed sees: every durable record the moment it is
   acknowledged, plus a marker whenever the store compacts (a replica
   may fold its own log on the same beat). *)
type ship =
  | Ship_txn of { lsn : int; ops : Update.op list }
  | Ship_mark of { lsn : int }

type t = {
  io : Io.t;
  schema_v : Schema.t;
  auto_checkpoint : int;
  delta_chain : int;  (** collapse the delta chain past this many segments *)
  (* the session's commit hook closes over this cell: a no-op while
     recovery replays the tail (those records are already durable), the
     log appender afterwards *)
  hook : (Update.op list -> Directory.t -> unit) ref;
  mutable dir : Directory.t;
  mutable lsn_v : int;
  mutable wal_bytes_v : int;
  mutable wal_records_v : int;
  mutable chain_len : int;  (** delta segments since the last full snapshot *)
  mutable delta_bytes_v : int;
  mutable base : Checkpoint.meta;  (** session totals at last checkpoint *)
  mutable counted : Directory.stats;  (** live counters at last checkpoint *)
  (* group commit: while [Some buf], accepted transactions buffer their
     encoded log records here instead of appending — {!batch} lands the
     whole buffer with one append (one shared fsync) before anything is
     acknowledged *)
  mutable batch_buf : Buffer.t option;
  mutable batch_count : int;
  mutable batch_results : Admission.result list;  (** newest first *)
  (* the replication feed, fired only after the record's bytes are
     durable (post-append, post-shared-flush) — never mid-batch *)
  mutable ship : (ship -> unit) option;
  mutable recovery_v : report option;  (** how {!open_} found the logs *)
  (* set by the first failed log or checkpoint write; from then on every
     write raises {!Poisoned} until a reopen lets recovery settle the log *)
  mutable poisoned_v : string option;
}

exception Poisoned of string

type error =
  | Not_a_store of string
  | Already_a_store
  | Corrupt of string
  | Illegal of Violation.t list
  | Bad_load of string

let error_to_string = function
  | Not_a_store m -> "not a store: " ^ m
  | Already_a_store -> "already a store"
  | Corrupt m -> "corrupt store: " ^ m
  | Illegal vs ->
      Format.asprintf "illegal instance:@ %a"
        (Format.pp_print_list Violation.pp)
        vs
  | Bad_load m -> "bulk load failed: " ^ m

let pp_tail ppf = function
  | Clean -> Format.fprintf ppf "clean"
  | Recovered_at { offset; reason } ->
      Format.fprintf ppf "recovered at byte %d (%s)" offset reason

let pp_report ppf r =
  Format.fprintf ppf "checkpoint lsn %d, %d replayed, %d skipped, tail %a"
    r.checkpoint_lsn r.replayed r.skipped pp_tail r.tail;
  if r.delta_segments > 0 || r.delta_tail <> Clean then
    Format.fprintf ppf "; delta: %d segment(s), %d replayed, %a"
      r.delta_segments r.delta_replayed pp_tail r.delta_tail

let exists io = io.Io.read schema_file <> None

let schema t = t.schema_v
let directory t = t.dir
let lsn t = t.lsn_v
let wal_bytes t = t.wal_bytes_v
let wal_records t = t.wal_records_v
let delta_segments t = t.chain_len
let delta_bytes t = t.delta_bytes_v
let recovery t = t.recovery_v
let set_ship_hook t hook = t.ship <- hook
let poisoned t = t.poisoned_v

(* Fail-stop.  After a write that raised, the store cannot know how many
   of its bytes reached the disk: a whole record would be recovered, a
   torn one would make recovery truncate there and drop everything
   appended after it, and retrying may reuse an lsn.  So the handle stops
   accepting writes — the PostgreSQL fsync lesson — and a reopen settles
   the log through recovery. *)
let check_live t =
  match t.poisoned_v with Some m -> raise (Poisoned m) | None -> ()

let durably t f =
  check_live t;
  try f ()
  with e ->
    t.poisoned_v <- Some (Printexc.to_string e);
    raise e

(* The feed must never be able to fail a commit that is already durable:
   a throwing subscriber is that subscriber's problem. *)
let fire_ship t item =
  match t.ship with None -> () | Some f -> ( try f item with _ -> ())

let stats t =
  let s = Directory.stats t.dir in
  {
    Checkpoint.lsn = t.lsn_v;
    entries = s.Directory.entries;
    applied = t.base.Checkpoint.applied + s.Directory.applied - t.counted.Directory.applied;
    rejected = t.base.Checkpoint.rejected + s.Directory.rejected - t.counted.Directory.rejected;
    queries = t.base.Checkpoint.queries + s.Directory.queries - t.counted.Directory.queries;
    memo_hits = s.Directory.memo_hits;
    memo_misses = s.Directory.memo_misses;
    memo_entries = s.Directory.memo_entries;
  }

let wal_hook t ops _dir =
  let lsn = t.lsn_v + 1 in
  match t.batch_buf with
  | Some buf ->
      (* inside a batch: the record is encoded now (so lsns stay dense
         and later records in the batch see the right sequence) but hits
         the log only at the shared flush in {!batch} *)
      Buffer.add_string buf (Wal.encode_record ~lsn ops);
      t.lsn_v <- lsn;
      t.batch_count <- t.batch_count + 1
  | None ->
      (* [append] reports the bytes it framed, so the accounting reuses
         the encoding just written instead of encoding the transaction
         twice *)
      let bytes = durably t (fun () -> Wal.append t.io wal_file ~lsn ops) in
      t.lsn_v <- lsn;
      t.wal_bytes_v <- t.wal_bytes_v + bytes;
      t.wal_records_v <- t.wal_records_v + 1

(* Collapse: rewrite the whole snapshot (atomic temp+rename), then drop
   the delta chain and the log.  A crash after the rename leaves delta
   and log records with lsn ≤ the new checkpoint's, which recovery skips
   as duplicates — every intermediate state recovers. *)
let full_checkpoint t =
  let meta = stats t in
  Checkpoint.write t.io checkpoint_file meta (Directory.instance t.dir);
  t.io.Io.write delta_file "";
  Wal.reset t.io wal_file;
  t.chain_len <- 0;
  t.delta_bytes_v <- 0;
  t.wal_bytes_v <- 0;
  t.wal_records_v <- 0;
  t.base <- meta;
  t.counted <- Directory.stats t.dir;
  fire_ship t (Ship_mark { lsn = t.lsn_v })

(* Each delta segment starts with a marker record — lsn 0, no ops — so
   recovery can count segments without side metadata; lsn 0 precedes
   every real lsn, so the replay discipline skips it for free. *)
let segment_marker = Wal.encode_record ~lsn:0 []

(* O(Δ) compaction: fold the log into the delta chain.  The log records
   are already CRC-framed and lsn-stamped, so the segment is one append
   of bytes that already exist; recovery replays base + delta + log
   under one lsn discipline.  Crash anywhere: before the append nothing
   changed; a torn append truncates to whole records and the untouched
   log still holds the segment (duplicates skip); between append and
   reset, delta and log hold the same lsns (duplicates skip). *)
let delta_checkpoint t =
  if t.wal_records_v > 0 then begin
    let bytes =
      match t.io.Io.read wal_file with Some b -> b | None -> ""
    in
    t.io.Io.append delta_file (segment_marker ^ bytes);
    Wal.reset t.io wal_file;
    t.chain_len <- t.chain_len + 1;
    t.delta_bytes_v <-
      t.delta_bytes_v + String.length segment_marker + String.length bytes;
    t.wal_bytes_v <- 0;
    t.wal_records_v <- 0;
    fire_ship t (Ship_mark { lsn = t.lsn_v })
  end

let checkpoint ?(full = false) t =
  durably t (fun () ->
      if full || t.delta_chain <= 0 || t.chain_len >= t.delta_chain then
        full_checkpoint t
      else delta_checkpoint t)

let apply t ops =
  check_live t;
  let dir, res = Directory.apply t.dir ops in
  let res =
    match res with
    | Admission.Rejected _ -> res
    | Admission.Accepted _ ->
        t.dir <- dir;
        (* the commit hook ran inside [Directory.apply] — by now the
           record is durable (or buffered, inside a batch) and [lsn_v]
           is its log position *)
        Admission.with_lsn t.lsn_v res
  in
  (match t.batch_buf with
  | Some _ -> t.batch_results <- res :: t.batch_results
  | None ->
      (match res with
      | Admission.Accepted { ops; _ } ->
          (* the append above made the record durable: ship it *)
          fire_ship t (Ship_txn { lsn = t.lsn_v; ops })
      | Admission.Rejected _ -> ());
      (* auto-compaction waits for the batch flush: a checkpoint taken
         mid-batch would cover records that are not on disk yet *)
      if
        Admission.accepted res
        && t.auto_checkpoint > 0
        && t.wal_records_v >= t.auto_checkpoint
      then checkpoint t);
  res

(* Group commit.  Every {!apply} inside [f] is admitted against the
   rolling version as usual, but its log record lands in the batch
   buffer; when [f] returns, the whole buffer is appended in one I/O
   operation — one shared fsync on a durable handle — and only then does
   [batch] return, which is when the caller may acknowledge any of the
   batched transactions.  The on-disk bytes are identical to sequential
   {!apply}s of the same accepted transactions.

   Crash discipline: a crash before the flush leaves none of the batch
   on disk (none was acknowledged); a torn flush leaves a prefix of
   whole records that recovery replays (admitted-but-unacknowledged
   transactions — allowed, since durability promises acknowledged ⊆
   recovered).  If [f] raises, the store rolls back to the batch-start
   version and lsn and the exception propagates: nothing reached the
   log, the handle stays usable.  If the flush append raises, the store
   also rolls back — nothing is acknowledged — but the handle is
   poisoned: some of the batch's bytes may be on disk. *)
let batch t f =
  if t.batch_buf <> None then invalid_arg "Store.batch: batch already open";
  check_live t;
  let dir0 = t.dir and lsn0 = t.lsn_v in
  let buf = Buffer.create 1024 in
  t.batch_buf <- Some buf;
  t.batch_count <- 0;
  t.batch_results <- [];
  let rollback () =
    t.dir <- dir0;
    t.lsn_v <- lsn0;
    t.batch_buf <- None;
    t.batch_count <- 0;
    t.batch_results <- []
  in
  match f () with
  | exception e ->
      rollback ();
      raise e
  | result ->
      let n = t.batch_count in
      let results = List.rev t.batch_results in
      t.batch_buf <- None;
      t.batch_count <- 0;
      t.batch_results <- [];
      if Buffer.length buf > 0 then begin
        (try durably t (fun () -> Wal.append_raw t.io wal_file (Buffer.contents buf))
         with e ->
           rollback ();
           raise e);
        t.wal_bytes_v <- t.wal_bytes_v + Buffer.length buf;
        t.wal_records_v <- t.wal_records_v + n;
        (* the shared flush is behind us: every accepted record of the
           batch is durable, in lsn order — ship them on the same beat
           the caller is allowed to acknowledge them *)
        List.iter
          (fun r ->
            match r with
            | Admission.Accepted { lsn = Some l; ops; _ } ->
                fire_ship t (Ship_txn { lsn = l; ops })
            | Admission.Accepted { lsn = None; _ } | Admission.Rejected _ ->
                ())
          results
      end;
      if t.auto_checkpoint > 0 && t.wal_records_v >= t.auto_checkpoint then
        checkpoint t;
      (result, results)

(* Streaming bulk load: the caller drives [feed], pushing one entry at a
   time into a {!Directory.Bulk} builder (so a million-entry dump never
   materializes an op list).  Nothing is committed until the whole feed
   succeeded and — unless [trust] — the final instance passed one full
   admission check; the commit itself is an atomic checkpoint replace,
   so a crash at any point leaves the pre-load store intact.  Loaded
   entries bypass the log on purpose: one O(|D|) checkpoint instead of
   |Δ| log records, which is the point of a bulk path. *)
let load ?(trust = false) t feed =
  check_live t;
  let bulk = Directory.Bulk.start t.dir in
  let before = Directory.size t.dir in
  let add ~parent entry =
    match Directory.Bulk.add bulk [ Update.Insert { parent; entry } ] with
    | Ok () -> Ok ()
    | Error rej -> Error (Format.asprintf "%a" Monitor.pp_rejection rej)
  in
  match feed add with
  | Error m -> Error (Bad_load m)
  | Ok () -> (
      let dir = Directory.Bulk.finish bulk in
      match (if trust then [] else Directory.validate dir) with
      | _ :: _ as vs -> Error (Illegal vs)
      | [] ->
          t.dir <- dir;
          (* commit: fresh FULL checkpoint at the current lsn, then log
             reset.  Loaded entries bypass the log, so only a whole
             snapshot captures them — a delta segment here would lose
             the load.  A crash between the two leaves old records with
             lsn ≤ the checkpoint's, which recovery skips as
             duplicates. *)
          durably t (fun () -> full_checkpoint t);
          Ok (Directory.size dir - before))

let close _ = ()

let init ?extensions ?(auto_checkpoint = 0) ?(delta_chain = 8) io schema inst =
  if exists io then Error Already_a_store
  else
    let hook = ref (fun _ _ -> ()) in
    match
      Directory.open_ ?extensions
        ~store:(fun ops d -> !hook ops d)
        schema inst
    with
    | Error vs -> Error (Illegal vs)
    | Ok dir ->
        let s = Directory.stats dir in
        let meta =
          {
            Checkpoint.lsn = 0;
            entries = s.Directory.entries;
            applied = 0;
            rejected = 0;
            queries = 0;
            memo_hits = s.Directory.memo_hits;
            memo_misses = s.Directory.memo_misses;
            memo_entries = s.Directory.memo_entries;
          }
        in
        Checkpoint.write io checkpoint_file meta inst;
        (* clear any stale chain/log left behind by an earlier store in
           the same directory (the marker was removed, not the data) *)
        io.Io.write delta_file "";
        Wal.reset io wal_file;
        (* the schema is the store marker, written last: a crash anywhere
           during init leaves a directory [open_] refuses as Not_a_store *)
        io.Io.write schema_file (Spec_printer.to_string schema);
        let t =
          {
            io;
            schema_v = schema;
            auto_checkpoint;
            delta_chain;
            hook;
            dir;
            lsn_v = 0;
            wal_bytes_v = 0;
            wal_records_v = 0;
            chain_len = 0;
            delta_bytes_v = 0;
            base = meta;
            counted = s;
            batch_buf = None;
            batch_count = 0;
            batch_results = [];
            ship = None;
            recovery_v = None;
            poisoned_v = None;
          }
        in
        hook := wal_hook t;
        Ok t

(* --- recovery ----------------------------------------------------------- *)

type replay_state = {
  mutable cur : int;
  mutable replayed : int;
  mutable skipped : int;
  mutable broke : Wal.truncation option;
  mutable segments : int;  (** delta segment markers seen *)
}

(* Stream a file once ({!Wal.fold} — O(record) memory) and replay each
   record under the lsn discipline: lsn ≤ current is a duplicate the
   checkpoint already covers (left by a crash between checkpoint-rename
   and log-reset) and is skipped; lsn = current+1 is applied; anything
   else — a gap, or a record that no longer applies — marks the damage
   point and ends replay.  One pass serves the delta chain and the log:
   both hold the same CRC-framed records, and one lsn discipline covers
   the whole fold — base checkpoint, then every delta segment in append
   order, then the log.  Segment markers (lsn 0, no ops) are counted,
   not replayed. *)
let replay_file st ~apply_record io file =
  Wal.fold io file
    (fun () (r : Wal.record) ->
      if st.broke <> None then ()
      else if r.lsn = 0 && r.ops = [] then st.segments <- st.segments + 1
      else if r.lsn <= st.cur then st.skipped <- st.skipped + 1
      else if r.lsn = st.cur + 1 then
        match apply_record r.ops with
        | Ok () ->
            st.cur <- r.lsn;
            st.replayed <- st.replayed + 1
        | Error rej ->
            st.broke <-
              Some
                {
                  Wal.offset = r.offset;
                  reason =
                    Format.asprintf "replay rejected: %a" Monitor.pp_rejection
                      rej;
                }
      else
        st.broke <-
          Some
            {
              Wal.offset = r.offset;
              reason =
                Printf.sprintf "lsn gap: expected %d, found %d" (st.cur + 1)
                  r.lsn;
            })
    ()

(* Fold the delta chain, then the log, through [apply_record]: the
   recovery report, the last lsn replayed, and where the valid prefix of
   the log and of the chain ends.  Nothing is truncated here — the
   caller cuts the files once it knows which replay stands. *)
let replay_log ~apply_record io ~lsn =
  let st = { cur = lsn; replayed = 0; skipped = 0; broke = None; segments = 0 } in
  let tail_of (folded : unit Wal.folded) =
    match if st.broke <> None then st.broke else folded.truncated with
    | None -> (Clean, folded.end_offset)
    | Some { Wal.offset; reason } -> (Recovered_at { offset; reason }, offset)
  in
  let delta_tail, delta_end =
    tail_of (replay_file st ~apply_record io delta_file)
  in
  let delta_replayed = st.replayed and delta_skipped = st.skipped in
  (* A damaged delta tail ends the chain; the log may still bridge the
     lost suffix (a torn segment append leaves the log un-reset, so the
     same records replay from there as duplicates-then-fresh). *)
  st.broke <- None;
  let tail, wal_end = tail_of (replay_file st ~apply_record io wal_file) in
  ( {
      checkpoint_lsn = lsn;
      replayed = st.replayed - delta_replayed;
      skipped = st.skipped - delta_skipped;
      tail;
      delta_segments = st.segments;
      delta_replayed;
      delta_tail;
    },
    st.cur,
    wal_end,
    delta_end )

(* Recovery builds the live session once.  Trusted (the default): fold
   the delta chain and the log into the checkpoint's plain instance with
   {!Update.apply} — every logged record passed admission before it was
   acknowledged and its CRC frame vouches for the bytes — then run one
   {!Directory.open_}, whose admission scan covers the recovered state
   (so a [load ~trust] misuse is still caught here).  If that scan
   fails, the checked replay decides: it opens the checkpoint and
   re-admits record by record through {!Directory.apply}, truncating at
   the first rejection — the outcome the checked path alone would
   give.  Replayed records count as applied in {!stats} either way. *)
let open_ ?extensions ?(auto_checkpoint = 0) ?(delta_chain = 8)
    ?(trusted = true) io =
  match io.Io.read schema_file with
  | None -> Error (Not_a_store ("missing " ^ schema_file))
  | Some spec -> (
      match Spec_parser.parse spec with
      | Error e ->
          Error (Corrupt (schema_file ^ ": " ^ Spec_parser.error_to_string e))
      | Ok schema -> (
          match
            Checkpoint.read io checkpoint_file ~typing:schema.Schema.typing
          with
          | Error m -> Error (Corrupt (checkpoint_file ^ ": " ^ m))
          | Ok (meta, inst0) -> (
              let hook = ref (fun _ _ -> ()) in
              let session inst =
                Directory.open_ ?extensions
                  ~store:(fun ops d -> !hook ops d)
                  schema inst
              in
              let lsn = meta.Checkpoint.lsn in
              let checked () =
                match session inst0 with
                | Error vs -> Error (Illegal vs)
                | Ok dir0 ->
                    (* every version shares one counter record: read the
                       baseline before replay moves it *)
                    let counted = Directory.stats dir0 in
                    let dir = ref dir0 in
                    let apply_record ops =
                      match Directory.apply !dir ops with
                      | d, Admission.Accepted _ ->
                          dir := d;
                          Ok ()
                      | _, Admission.Rejected { reason; _ } -> Error reason
                    in
                    let r = replay_log ~apply_record io ~lsn in
                    Ok (!dir, counted, r)
              in
              let build_once () =
                let inst = ref inst0 in
                let apply_record ops =
                  match Update.apply !inst ops with
                  | Ok i ->
                      inst := i;
                      Ok ()
                  | Error msg -> Error (Monitor.Bad_ops msg)
                in
                let ((report, _, _, _) as r) =
                  replay_log ~apply_record io ~lsn
                in
                match session !inst with
                | Error _ -> checked ()
                | Ok dir ->
                    (* the fresh session counted none of the replayed
                       records; the baseline absorbs them *)
                    let s = Directory.stats dir in
                    let applied =
                      s.applied - report.delta_replayed - report.replayed
                    in
                    Ok (dir, { s with Directory.applied }, r)
              in
              match if trusted then build_once () else checked () with
              | Error _ as e -> e
              | Ok (dir, counted, (report, cur, wal_end, delta_end)) ->
                  (* cut each damaged file back to its valid prefix, so
                     the next append extends whole records, not junk *)
                  let cut file = function
                    | Clean -> ()
                    | Recovered_at { offset; _ } ->
                        Wal.truncate io file ~keep:offset
                  in
                  cut delta_file report.delta_tail;
                  cut wal_file report.tail;
                  let t =
                    {
                      io;
                      schema_v = schema;
                      auto_checkpoint;
                      delta_chain;
                      hook;
                      dir;
                      lsn_v = cur;
                      wal_bytes_v = wal_end;
                      wal_records_v = report.replayed + report.skipped;
                      chain_len = report.delta_segments;
                      delta_bytes_v = delta_end;
                      base = meta;
                      counted;
                      batch_buf = None;
                      batch_count = 0;
                      batch_results = [];
                      ship = None;
                      recovery_v = Some report;
                      poisoned_v = None;
                    }
                  in
                  hook := wal_hook t;
                  Ok (t, report))))

(* --- replication (WAL shipment) ------------------------------------------ *)

(* Catch a subscriber up from its last durable lsn: every record with a
   greater lsn still lives in the delta chain + log iff the subscriber
   is no older than the base checkpoint (records at or below the base's
   lsn are folded into the snapshot and gone from the logs).  Only
   records up to [lsn_v] were acknowledged: a failed batch flush can
   leave whole records past it in the log, and those are never shipped —
   a poisoned store ships nothing at all. *)
let records_from t ~lsn:from_lsn =
  if t.batch_buf <> None then invalid_arg "Store.records_from: inside a batch";
  check_live t;
  if from_lsn < t.base.Checkpoint.lsn || from_lsn > t.lsn_v then `Too_old
  else
    let take acc (r : Wal.record) =
      if (r.lsn = 0 && r.ops = []) (* segment marker *) || r.lsn > t.lsn_v then acc
      else (r.lsn, r.ops) :: acc
    in
    let acc = (Wal.fold_from t.io delta_file ~lsn:from_lsn take []).Wal.acc in
    let acc = (Wal.fold_from t.io wal_file ~lsn:from_lsn take acc).Wal.acc in
    `Records (List.rev acc)

(* A bootstrap package for a subscriber too old (or too new — a primary
   that lost data) to catch up from the logs: the schema text plus the
   current version as one checkpoint blob, encoded through the same
   {!Checkpoint} codec the store trusts on disk.  O(|D|). *)
let boot_blob t =
  if t.batch_buf <> None then invalid_arg "Store.boot_blob: inside a batch";
  check_live t;
  let meta = stats t in
  let scratch = Io.mem (Io.fresh_fs ()) in
  Checkpoint.write scratch checkpoint_file meta (Directory.instance t.dir);
  let blob =
    match scratch.Io.read checkpoint_file with
    | Some b -> b
    | None -> assert false
  in
  (Spec_printer.to_string t.schema_v, blob, t.lsn_v)

(* Install a shipped bootstrap package as a store directory, replacing
   whatever was there.  The blob is validated against the shipped schema
   before anything is written.  Write order makes a crash at any point
   recoverable: checkpoint first (old log records become skippable
   duplicates), then the log resets, then the schema marker — the same
   marker-last discipline as {!init}.  The caller re-opens with
   {!open_}. *)
let install_snapshot io ~schema ~checkpoint =
  match Spec_parser.parse schema with
  | Error e ->
      Error ("boot schema: " ^ Spec_parser.error_to_string e)
  | Ok parsed -> (
      let scratch = Io.mem (Io.fresh_fs ()) in
      scratch.Io.write checkpoint_file checkpoint;
      match
        Checkpoint.read scratch checkpoint_file ~typing:parsed.Schema.typing
      with
      | Error m -> Error ("boot checkpoint: " ^ m)
      | Ok _ ->
          io.Io.write checkpoint_file checkpoint;
          io.Io.write delta_file "";
          Wal.reset io wal_file;
          io.Io.write schema_file schema;
          Ok ())

(* The replica's write surface: apply one shipped record under the same
   lsn discipline recovery uses.  A duplicate (lsn already covered) is
   skipped — the overlap a resume-from-lsn re-subscription produces; the
   successor lsn is logged durably {e first} (acknowledged ⊆ recovered
   holds on the replica too) and then applied through the trusted
   {!Directory.replay} path: the primary admitted the record before
   acknowledging it (Theorem 4.1), and the frame CRC vouches these are
   the same bytes, so legality is not re-checked.  A gap means shipment
   lost records — the caller must re-bootstrap, not guess. *)
let replica_apply t ~lsn ops =
  if t.batch_buf <> None then invalid_arg "Store.replica_apply: inside a batch";
  check_live t;
  if lsn <= t.lsn_v then Ok `Duplicate
  else if lsn <> t.lsn_v + 1 then
    Error
      (Printf.sprintf "lsn gap: expected %d, shipped %d" (t.lsn_v + 1) lsn)
  else begin
    let before = t.wal_bytes_v in
    let bytes = durably t (fun () -> Wal.append t.io wal_file ~lsn ops) in
    match Directory.replay t.dir ops with
    | Ok dir ->
        t.dir <- dir;
        t.lsn_v <- lsn;
        t.wal_bytes_v <- before + bytes;
        t.wal_records_v <- t.wal_records_v + 1;
        if t.auto_checkpoint > 0 && t.wal_records_v >= t.auto_checkpoint then
          checkpoint t;
        Ok `Applied
    | Error rej ->
        (* a shipped record the trusted path cannot apply is damage, not
           a verdict: un-log it so the durable prefix stays replayable *)
        durably t (fun () -> Wal.truncate t.io wal_file ~keep:before);
        Error
          (Format.asprintf "shipped record %d rejected: %a" lsn
             Monitor.pp_rejection rej)
  end
