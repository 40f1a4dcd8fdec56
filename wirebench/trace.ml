(* The traced run: one thread, in this process, against a copy of the
   fixture.  It replays the seeded request stream through the public
   functions the daemons call, in the daemons' order, and times each call
   as a span.  Nothing under lib/ is changed: the store's I/O is timed by
   wrapping the open [Io.t] record, everything else by wrapping the calls.

   A span records its name, start, end, parent, request id and the minor
   words allocated inside it; root spans (one per request) also carry
   [Gc.quick_stat] deltas of major and minor collections — a quick_stat
   costs about 1.5 µs, too much for the microsecond spans below a root.
   Spans stay in memory until the replay ends. *)

open Bounds_model
open Bounds_core
module Store = Bounds_store.Store
module Io = Bounds_store.Io
module Proto = Bounds_net.Proto
module Ldif = Bounds_codec.Ldif
open Fixture

type span = {
  id : int;
  name : string;
  rid : int;
  parent : int;  (** [-1] for a root *)
  t0 : float;
  t1 : float;
  minor_words : float;
  major : int;  (** major collections (roots only) *)
  minors : int;  (** minor collections (roots only) *)
}

(* Monotonic nanoseconds, unboxed and allocation-free: the tracer must
   not allocate between spans (its own minor collections would land in
   the gaps it checks), and microsecond wall-clock ticks are too coarse
   for spans of a few microseconds. *)
let clock () = Int64.to_float (Monotonic_clock.clock_linux_get_time ()) *. 1e-9

(* Spans live in preallocated columns while the replay runs. *)
let names = ref [||]
let cap = ref 0
let count = ref 0
let c_name = ref [||] and c_rid = ref [||] and c_parent = ref [||]
let c_t0 = ref [||] and c_t1 = ref [||] and c_words = ref [||]
let c_major = ref [||] and c_minors = ref [||]
let top = ref (-1)
let cur_rid = ref (-1)
let enabled = ref false

(* Start a replay: with [on], clear the columns; without, keep the last
   traced replay's spans for analysis. *)
let reset ~on =
  enabled := on;
  if on then begin
    count := 0;
    top := -1;
    cur_rid := -1
  end;
  if !cap = 0 then begin
    cap := 1 lsl 16;
    c_name := Array.make !cap 0;
    c_rid := Array.make !cap 0;
    c_parent := Array.make !cap 0;
    c_t0 := Array.make !cap 0.;
    c_t1 := Array.make !cap 0.;
    c_words := Array.make !cap 0.;
    c_major := Array.make !cap 0;
    c_minors := Array.make !cap 0
  end

let grow () =
  let n = 2 * !cap in
  let ext a d = Array.append a (Array.make (n - Array.length a) d) in
  c_name := ext !c_name 0;
  c_rid := ext !c_rid 0;
  c_parent := ext !c_parent 0;
  c_t0 := ext !c_t0 0.;
  c_t1 := ext !c_t1 0.;
  c_words := ext !c_words 0.;
  c_major := ext !c_major 0;
  c_minors := ext !c_minors 0;
  cap := n

(* Span names are registered once, up front. *)
let name s =
  names := Array.append !names [| s |];
  Array.length !names - 1

let open_span n =
  let t0 = clock () in
  if !count = !cap then grow ();
  let i = !count in
  count := i + 1;
  Array.unsafe_set !c_name i n;
  Array.unsafe_set !c_rid i !cur_rid;
  Array.unsafe_set !c_parent i !top;
  Array.unsafe_set !c_t0 i t0;
  Array.unsafe_set !c_words i (Gc.minor_words ());
  top := i;
  i

let close_span i parent =
  top := parent;
  Array.unsafe_set !c_words i (Gc.minor_words () -. Array.unsafe_get !c_words i);
  Array.unsafe_set !c_t1 i (clock ())

let span n f =
  if not !enabled then f ()
  else begin
    let parent = !top in
    let i = open_span n in
    match f () with
    | r ->
        close_span i parent;
        r
    | exception e ->
        close_span i parent;
        raise e
  end

(* A root span: one request, with its own request id.  The quick_stat
   calls sit outside the timed window. *)
let next_rid = ref 0

let request n f =
  if not !enabled then f ()
  else begin
    cur_rid := !next_rid;
    incr next_rid;
    let q0 = Gc.quick_stat () in
    let i = open_span n in
    let finish () =
      close_span i (-1);
      let q1 = Gc.quick_stat () in
      !c_major.(i) <- q1.Gc.major_collections - q0.Gc.major_collections;
      !c_minors.(i) <- q1.Gc.minor_collections - q0.Gc.minor_collections
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let spans () =
  List.init !count (fun i ->
      {
        id = i;
        name = !names.(!c_name.(i));
        rid = !c_rid.(i);
        parent = !c_parent.(i);
        t0 = !c_t0.(i);
        t1 = !c_t1.(i);
        minor_words = !c_words.(i);
        major = !c_major.(i);
        minors = !c_minors.(i);
      })

let n_read = name "store.read"
let n_write = name "store.write"
let n_append = name "store.append"
let n_rename = name "store.rename"
let n_open = name "store.open"
let n_decode = name "net.decode"
let n_reply = name "net.reply"
let n_ship_codec = name "net.ship_codec"
let n_qparse = name "query.parse"
let n_eval = name "query.eval"
let n_parse_changes = name "codec.parse_changes"
let n_admit = name "core.admit"
let n_publish = name "core.publish"
let n_records_from = name "store.records_from"
let n_replica_apply = name "store.replica_apply"
let r_open = name "req.open"
let r_replica_open = name "req.replica_open"
let r_first_query = name "req.first_query"
let r_records_from = name "req.records_from"
let r_ship = name "req.ship"
let r_write = name "req.write"
let r_read = List.map (fun c -> (c, name ("req.read." ^ cls_name c))) classes
let r_after = List.map (fun c -> (c, name ("req.after." ^ cls_name c))) classes
let r_calibrate = name "calibrate"

(* The tracer's own cost per child span that falls outside the child's
   window (call, closure, bookkeeping), in seconds: the median gap of an
   empty root holding four empty spans, per span.  The reconciliation
   check nets it out — for a root of a few microseconds it is otherwise
   most of the tenth. *)
let calibrate () =
  reset ~on:true;
  for _ = 1 to 2000 do
    request r_calibrate (fun () ->
        span r_calibrate ignore;
        span r_calibrate ignore;
        span r_calibrate ignore;
        span r_calibrate ignore)
  done;
  let gaps = ref [] in
  for i = 0 to !count - 1 do
    if !c_parent.(i) = -1 then begin
      let covered = ref 0. in
      for j = i + 1 to i + 4 do
        covered := !covered +. (!c_t1.(j) -. !c_t0.(j))
      done;
      gaps := ((!c_t1.(i) -. !c_t0.(i) -. !covered) /. 4.) :: !gaps
    end
  done;
  reset ~on:false;
  Util.median !gaps

(* Store I/O, timed and counted. *)
type io_count = { mutable appends : int; mutable bytes : int }

let traced_io (io : Io.t) c =
  {
    io with
    Io.read = (fun p -> span n_read (fun () -> io.read p));
    write = (fun p d -> span n_write (fun () -> io.write p d));
    append =
      (fun p d ->
        c.appends <- c.appends + 1;
        c.bytes <- c.bytes + String.length d;
        span n_append (fun () -> io.append p d));
    rename = (fun a b -> span n_rename (fun () -> io.rename a b));
  }

(* --- the server's call sequence --------------------------------------- *)

(* As [Server.dn_listing]. *)
let dn_listing inst ids =
  String.concat "\n" (string_of_int (List.length ids) :: List.map (Instance.dn inst) ids)

let get = function Ok v -> v | Error _ -> failwith "trace: unexpected parse error"

(* A read, as a handler thread serves it; returns the result ids and
   the encoded reply. *)
let serve_read snap payload =
  let inst = Directory.Snapshot.instance snap in
  let ids =
    match span n_decode (fun () -> Proto.decode_request payload) with
    | Ok (Proto.Query text) ->
        let q = span n_qparse (fun () -> get (Bounds_query.Query_parser.parse text)) in
        span n_eval (fun () -> Directory.Snapshot.query_ids_ro snap q)
    | Ok (Proto.Search { base; scope; filter }) ->
        let scope, filter =
          span n_qparse (fun () ->
              ( get (Bounds_query.Search.scope_of_string scope),
                get (Bounds_query.Filter_parser.parse filter) ))
        in
        span n_eval (fun () ->
            let base = Option.map (fun dn -> Option.get (Instance.resolve_dn inst dn)) base in
            Directory.Snapshot.search snap ~base scope filter)
    | _ -> failwith "trace: not a read"
  in
  let reply =
    span n_reply (fun () -> Proto.encode_response (Proto.Reply (dn_listing inst ids)))
  in
  (ids, reply)

(* A write, as the writer thread commits a group of one: parse and
   admit inside [Store.batch] (whose flush is the WAL append), then
   publish the snapshot readers will see. *)
let serve_write st payload =
  let text =
    match span n_decode (fun () -> Proto.decode_request payload) with
    | Ok (Proto.Apply text) -> text
    | _ -> failwith "trace: not a write"
  in
  let typing = (Store.schema st).Schema.typing in
  let verdict, _ =
    Store.batch st (fun () ->
        let inst = Directory.instance (Store.directory st) in
        match span n_parse_changes (fun () -> Ldif.parse_changes ~typing inst text) with
        | Error e -> failwith ("trace: write does not parse: " ^ e)
        | Ok ops -> span n_admit (fun () -> Store.apply st ops))
  in
  match verdict with
  | Admission.Accepted { lsn; ops; _ } ->
      let snap = span n_publish (fun () -> Directory.snapshot (Store.directory st)) in
      ignore
        (span n_reply (fun () ->
             Proto.encode_response
               (Proto.Reply
                  (Printf.sprintf "applied %d ops at lsn %d" (List.length ops)
                     (Option.value lsn ~default:(Store.lsn st))))));
      snap
  | Admission.Rejected _ -> failwith "trace: write rejected"

(* --- one replay ------------------------------------------------------- *)

type plan = {
  pool : Fixture.reads;
  reads : Fixture.read list;  (** in order, before the writes *)
  writes : int;
  after_write_rounds : int;
  mixed : bool;
  seed : int;
  tag : string;
}

type outcome = {
  elapsed : float;
  opened : Store.report;
  wrong : string list;
  memo_migrated : int;
  memo_dropped : int;
  ldif_bytes : int;
  replica_io : io_count;
  records : int;
  writes_done : int;
  write_appends : int;  (** WAL appends made by the writes *)
  write_bytes : int;
  results : (string * int) list;  (** read class, result count *)
  reply_bytes : int list;
}

let replay ~inst ~src ~work ~on plan =
  Unix.mkdir work 0o755;
  Util.copy_dir (primary_dir src) (primary_dir work);
  Util.copy_dir (replica_dir src) (replica_dir work);
  reset ~on;
  let pc = { appends = 0; bytes = 0 } and rc = { appends = 0; bytes = 0 } in
  let pio = traced_io (Io.real ~root:(primary_dir work) ()) pc in
  let rio = traced_io (Io.real ~root:(replica_dir work) ()) rc in
  let wrong = ref [] in
  let check r reply =
    let body =
      match Proto.decode_response reply with Ok (Proto.Reply b) -> b | _ -> ""
    in
    match check_reply r body with Ok () -> () | Error e -> wrong := e :: !wrong
  in
  let t0 = Util.now () in
  let st, opened =
    request r_open (fun () ->
        match span n_open (fun () -> Store.open_ pio) with
        | Ok r -> r
        | Error e -> failwith ("trace open: " ^ Store.error_to_string e))
  in
  let rng = Random.State.make [| plan.seed; 0x7ace |] in
  let first = point_read (pick rng plan.pool.points) in
  let payload = Proto.encode_request first.req in
  let snap, answer =
    request r_first_query (fun () ->
        let snap = span n_publish (fun () -> Directory.snapshot (Store.directory st)) in
        (snap, serve_read snap payload))
  in
  check first (snd answer);
  let snap = ref snap in
  (* catch-up: the primary's catch-up set, shipped and applied on the
     replica copy *)
  let recs =
    request r_records_from (fun () ->
        match span n_records_from (fun () -> Store.records_from st ~lsn:0) with
        | `Records rs -> rs
        | `Too_old -> failwith "trace: tail no longer in the logs")
  in
  let rst =
    request r_replica_open (fun () ->
        match span n_open (fun () -> Store.open_ rio) with
        | Ok (r, _) -> r
        | Error e -> failwith ("trace replica open: " ^ Store.error_to_string e))
  in
  List.iter
    (fun (lsn, ops) ->
      request r_ship (fun () ->
          match
            span n_ship_codec (fun () ->
                Proto.decode_stream (Proto.encode_stream (Proto.Ship { lsn; ops })))
          with
          | Ok (Proto.Ship { lsn; ops }) -> (
              match span n_replica_apply (fun () -> Store.replica_apply rst ~lsn ops) with
              | Ok `Applied -> ()
              | Ok `Duplicate | Error _ -> wrong := "replica_apply refused a record" :: !wrong)
          | _ -> failwith "trace: stream does not round-trip"))
    recs;
  Store.close rst;
  let ws = wstream ~seed:plan.seed ~tag:plan.tag ~mixed:plan.mixed inst in
  let migrated = ref 0 and dropped = ref 0 and ldif = ref 0 in
  let n_writes = ref 0 and w_appends = ref 0 and w_bytes = ref 0 in
  let write () =
    let w = next_write ws in
    let payload = Proto.encode_request (Proto.Apply w.text) in
    ldif := !ldif + String.length w.text;
    let s0 = Directory.stats (Store.directory st) in
    let a0 = pc.appends and b0 = pc.bytes in
    snap := request r_write (fun () -> serve_write st payload);
    w_appends := !w_appends + pc.appends - a0;
    w_bytes := !w_bytes + pc.bytes - b0;
    incr n_writes;
    let s1 = Directory.stats (Store.directory st) in
    migrated := !migrated + s1.memo_migrated - s0.memo_migrated;
    dropped := !dropped + s1.memo_dropped - s0.memo_dropped;
    ack ws w
  in
  let results = ref [] and replies = ref [] in
  let read ?(roots = r_read) r =
    let payload = Proto.encode_request r.req in
    let ids, reply = request (List.assoc r.cls roots) (fun () -> serve_read !snap payload) in
    results := (cls_name r.cls, List.length ids) :: !results;
    replies := String.length reply :: !replies;
    check r reply
  in
  List.iter (fun r -> read r) plan.reads;
  for _ = 1 to plan.writes do
    write ()
  done;
  (* the first read of each class after a commit *)
  for _ = 1 to plan.after_write_rounds do
    write ();
    List.iter (fun c -> read ~roots:r_after (read_of_cls rng plan.pool c)) classes
  done;
  let elapsed = Util.now () -. t0 in
  Store.close st;
  enabled := false;
  {
    elapsed;
    opened;
    wrong = !wrong;
    memo_migrated = !migrated;
    memo_dropped = !dropped;
    ldif_bytes = !ldif;
    replica_io = rc;
    records = List.length recs;
    writes_done = !n_writes;
    write_appends = !w_appends;
    write_bytes = !w_bytes;
    results = !results;
    reply_bytes = !replies;
  }

(* --- analysis --------------------------------------------------------- *)

let dur s = s.t1 -. s.t0

type analysis = {
  by_name : (string, span list) Hashtbl.t;  (** non-root spans, by name *)
  roots : span list;
  root_of : (int, span) Hashtbl.t;  (** span id -> its root *)
  children : (int, span list) Hashtbl.t;
  problems : string list;  (** nesting and reconciliation failures *)
  outside_share : float;
      (** share of individually checked roots whose layers miss the tenth *)
  cover : (string * int * float) list;
      (** per root kind: roots, and the share of their time the layers cover *)
}

let outside_limit = 0.01

let is_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Every span must hang under exactly one root of its own request id,
   and the layer spans directly below a root must cover it within a
   tenth (self times telescope: what the layers below a root account for
   is the sum of its children's durations), net of [per_span], the
   tracer's own calibrated cost per child span. *)
let analyse ~per_span spans =
  let by_id = Hashtbl.create 4096 and children = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let problems = ref [] in
  let root_of = Hashtbl.create 4096 in
  let rec find_root s =
    if s.parent < 0 then s
    else
      match Hashtbl.find_opt by_id s.parent with
      | Some p ->
          if p.rid <> s.rid then
            problems := Printf.sprintf "span %s crosses request ids" s.name :: !problems;
          if s.t0 < p.t0 || s.t1 > p.t1 then
            problems := Printf.sprintf "span %s escapes its parent %s" s.name p.name :: !problems;
          find_root p
      | None ->
          problems := Printf.sprintf "span %s has no parent" s.name :: !problems;
          s
  in
  let by_name = Hashtbl.create 64 in
  let roots = ref [] and rids = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent < 0 then begin
        if Hashtbl.mem rids s.rid then
          problems := Printf.sprintf "request %d has two roots" s.rid :: !problems;
        Hashtbl.replace rids s.rid ();
        roots := s :: !roots
      end
      else begin
        Hashtbl.replace root_of s.id (find_root s);
        Hashtbl.replace by_name s.name
          (s :: Option.value (Hashtbl.find_opt by_name s.name) ~default:[])
      end)
    spans;
  (* A minor collection, a preemption or an interrupt can land in the
     tracer's glue between two spans, and on a root of a few
     microseconds that alone breaks the tenth.  So every root kind must
     reconcile within a tenth in aggregate, and at most [outside_limit]
     of the roots that saw no minor collection may miss it one by one. *)
  let checked = ref 0 and outside = ref 0 and agg = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let kids = Option.value (Hashtbl.find_opt children r.id) ~default:[] in
      let covered = List.fold_left (fun a c -> a +. dur c) 0. kids in
      let gap = Float.max 0. (dur r -. covered -. (per_span *. float_of_int (List.length kids))) in
      let u, t, n = Option.value (Hashtbl.find_opt agg r.name) ~default:(0., 0., 0) in
      Hashtbl.replace agg r.name (u +. gap, t +. dur r, n + 1);
      if r.minors = 0 then begin
        incr checked;
        if dur r > 0. && gap /. dur r > 0.1 then incr outside
      end)
    !roots;
  let cover =
    Hashtbl.fold (fun name (u, t, n) acc -> (name, n, if t > 0. then 1. -. (u /. t) else 1.) :: acc) agg []
    |> List.sort compare
  in
  Hashtbl.iter
    (fun name (u, t, _) ->
      if t > 0. && u /. t > 0.1 then
        problems :=
          Printf.sprintf "roots %s: layers cover %.1f%% in aggregate" name (100. *. (1. -. (u /. t)))
          :: !problems)
    agg;
  let outside_share = if !checked = 0 then 0. else float_of_int !outside /. float_of_int !checked in
  if outside_share > outside_limit then
    problems :=
      Printf.sprintf "%d of %d roots miss the tenth one by one" !outside !checked :: !problems;
  { by_name; roots = !roots; root_of; children; problems = List.rev !problems;
    outside_share; cover }

(* Durations (seconds) of spans named [name] whose root's name starts
   with [under]. *)
let durations a ~under name =
  List.filter_map
    (fun s ->
      match Hashtbl.find_opt a.root_of s.id with
      | Some r when is_prefix under r.name -> Some (dur s)
      | _ -> None)
    (Option.value (Hashtbl.find_opt a.by_name name) ~default:[])

let roots_named a prefix = List.filter (fun r -> is_prefix prefix r.name) a.roots
