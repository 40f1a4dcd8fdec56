(* The wire-level directory benchmark.

     wirebench.exe --ldapschema EXE --dir RUNDIR --workload read|replicate
                   --seed N --seconds S --trace 0|1 [--small]

   Set-up builds the fixture (five copies; the median is [setup_s]), then
   the real [ldapschema serve] and [ldapschema replica] daemons run over
   loopback in their own processes while this process generates load on
   at most two threads and two connections.  A replica catches the WAL
   tail up in every workload.  The measured phase runs in rounds, with
   start-up samples between them, so every latency metric samples the
   whole run.  With [--trace 1] a traced in-process replay follows the
   wire run and the per-layer metrics are printed instead of the
   end-to-end ones.  The last stdout line is the JSON result; see
   README.md for every metric. *)

open Fixture
module Proto = Bounds_net.Proto
module Client = Bounds_net.Client
module Store = Bounds_store.Store

type workload = Read | Replicate

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  traced : bool;
  small : bool;
  exe : string;
  dir : string;
}

(* The measured phase runs in rounds of about [round_s] seconds; after
   each round, [starts_per_round] primaries are started on spare fixture
   copies for [ready_s].  The machine's speed drifts within seconds, so
   samples taken all through the run give steadier medians than samples
   bunched at one end of it. *)
let round_s = 5.
let starts_per_round = 2

(* On [replicate], writes are offered at [write_rate] per second, their
   schedule shifted by [write_phase] off the replica poll grid. *)
let write_rate = 4.
let write_phase = 0.0037

(* On [replicate], the replica's [applied_lsn] is polled at this
   interval (seconds); the lag it measures cannot be finer. *)
let poll_interval = 0.01

(* The interval of the replica [stats] polls that watch a catch-up:
   coarse, so the polls barely compete with the catch-up they time. *)
let catchup_poll = 0.01

(* On [replicate], every this many lag polls also carries a point lookup
   on the replica. *)
let read_every_polls = 2

(* Set-ups per run.  Each builds a fixture copy; the last serves the
   measured phase and the spare copies serve start-up samples, on [read]
   the write probe, and on [replicate] catch-up samples. *)
let setups = 5

(* On [read]: the share of each round spent in the read phase; the rest
   is the write probe, one write after each pause. *)
let read_share = 0.6
let probe_pause = 0.02

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let ms x = 1e3 *. x

(* --- the wire run -------------------------------------------------------- *)

type wire = {
  setup_s : float;
  setups : timings list;
  ready_s : float;
  peak_rss_mb : float;
  catchup_rps : float;
  catchup_n : int;  (** catch-up samples *)
  applied_per_s : float;
  tally : Wire.tally;
  lags : float list;
  polls : float list;  (** intervals between replica polls *)
  txns_per_commit : float;
  writes_rejected : int;
  reconnects : int;
  boots : int;
  gate : string list;  (** correctness-gate failures *)
}

let wire_run cfg =
  let size = if cfg.small then Fixture.small else Fixture.full in
  (* set-up: the last copy serves the measured phase *)
  let built =
    List.init setups (fun k ->
        let d = Filename.concat cfg.dir (Printf.sprintf "setup%d" k) in
        let (inst, tm), total = Util.time (fun () -> Fixture.build ~dir:d size) in
        Gc.compact ();
        (d, inst, tm, total))
  in
  let fix, inst, _, _ = List.nth built (setups - 1) in
  let spares = List.filter_map (fun (d, _, _, _) -> if d <> fix then Some d else None) built in
  let setup_s = Util.median (List.map (fun (_, _, _, t) -> t) built) in
  if cfg.traced then begin
    Unix.mkdir (Filename.concat cfg.dir "pristine") 0o755;
    Util.copy_dir (primary_dir fix) (primary_dir (Filename.concat cfg.dir "pristine"));
    Util.copy_dir (replica_dir fix) (replica_dir (Filename.concat cfg.dir "pristine"))
  end;
  let pool = Fixture.reads ~seed:cfg.seed inst size in
  let probe_read = point_read pool.points.(0) in
  let out name = Filename.concat cfg.dir name in
  let serve ?(dir = fix) name =
    Wire.spawn ~exe:cfg.exe ~out:(out name) ~marker:"listening on "
      [ "serve"; primary_dir dir; "--port"; "0"; "--replicate" ]
  in
  let hwm = ref 0. in
  let note_hwm d = hwm := Float.max !hwm (Wire.vm_hwm_mb d) in
  (* Start a primary on a fixture copy; ready is spawn to the first
     correct point lookup, which covers recovering checkpoint plus tail. *)
  let start dir =
    let p = serve ~dir (Filename.basename dir ^ ".primary.out") in
    (p, Wire.ready p probe_read)
  in
  (* A replica on the copy's lsn-0 replica store catches the whole tail
     up from [p]: tail records over spawn to caught up, and over first
     applied record to caught up. *)
  let catch_up p dir =
    let tail_lsn = Util.stats_int (Wire.stats p) "lsn" in
    let r =
      Wire.spawn ~exe:cfg.exe ~out:(out (Filename.basename dir ^ ".replica.out"))
        ~marker:"replica listening on "
        [ "replica"; "--from"; Printf.sprintf "127.0.0.1:%d" p.port; "--store"; replica_dir dir;
          "--port"; "0" ]
    in
    let rc = Wire.connect r in
    let rec poll first =
      let text = Wire.request_text rc Proto.Stats in
      let t = Util.now () and a = Util.stats_int text "applied_lsn" in
      let first = match first with None when a > 0 -> Some (t, a) | f -> f in
      if a >= tail_lsn then (t, first)
      else if t -. r.spawned > 120. then failwith "replica never caught up"
      else begin
        Unix.sleepf catchup_poll;
        poll first
      end
    in
    let caught, first = poll None in
    let rps = float_of_int tail_lsn /. (caught -. r.spawned) in
    let applied =
      match first with
      | Some (t, a) when caught > t -> float_of_int (tail_lsn - a) /. (caught -. t)
      | _ -> rps
    in
    (r, rc, (rps, applied))
  in
  let p, first_ready = start fix in
  let r, rc, first_catchup = catch_up p fix in
  let tally = Wire.tally (match cfg.workload with Read -> "read" | Replicate -> "replicate") in
  let gate = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> gate := s :: !gate) fmt in
  let stop_replica () =
    note_hwm r;
    let rs = Wire.request_text rc Proto.Stats in
    Client.close rc;
    Wire.shutdown r;
    rs
  in
  let rstats_end = ref "" in
  if cfg.workload <> Replicate then rstats_end := stop_replica ();
  let readies = ref [ first_ready ] in
  (* On [read], the write probe goes to a second primary on a spare copy,
     so the measured primary's read caches stay warm; the other spares
     serve start-up samples.  A start-up leaves its copy as it found it. *)
  let probe, starters =
    match (cfg.workload, spares) with
    | Read, d :: rest ->
        let q, ready = start d in
        readies := ready :: !readies;
        (Some q, rest)
    | _ -> (None, spares)
  in
  let starts = ref 0 in
  let sample_start () =
    let dir = List.nth starters (!starts mod List.length starters) in
    incr starts;
    let p, ready = start dir in
    readies := ready :: !readies;
    note_hwm p;
    Wire.shutdown p
  in
  let before = Wire.stats p in
  let tag = Printf.sprintf "%d" cfg.seed in
  let ws = wstream ~seed:cfg.seed ~tag ~mixed:(cfg.workload <> Read) inst in
  let acks = ref [] in
  let lags = ref [] and polls = ref [] in
  let rngs = Array.init 2 (fun i -> Random.State.make [| cfg.seed; i |]) in
  let rounds = max 1 (int_of_float (Float.round (cfg.seconds /. round_s))) in
  let round_len = cfg.seconds /. float_of_int rounds in
  let read_round () =
    let t0 = Util.now () in
    let until = t0 +. (read_share *. round_len) in
    Wire.in_threads
      (List.init 2 (fun i () ->
           let c = Wire.connect p in
           Wire.closed_loop ~until (fun ~due -> Wire.do_read tally c ~due (draw_read rngs.(i) pool));
           Client.close c));
    let until = t0 +. round_len in
    let c = Wire.connect (Option.get probe) in
    while Util.now () < until do
      (* a pause before each write, so it meets an idle server rather
         than a back-to-back scheduling pattern *)
      Unix.sleepf probe_pause;
      Wire.do_write tally c ws ~due:(Util.now ()) acks
    done;
    Client.close c
  in
  let replicate_round () =
    let start = Util.now () +. 0.01 in
    let until = start +. round_len in
    let writer_done = ref false in
    let round_acks = ref [] and samples = ref [] in
    Wire.in_threads
      [
        (fun () ->
          let c = Wire.connect p in
          Wire.open_loop tally ~start:(start +. write_phase) ~until ~rate:write_rate
            (fun ~due -> Wire.do_write tally c ws ~due round_acks);
          Client.close c;
          writer_done := true);
        (fun () ->
          let deadline = until +. 30. in
          let rec poll k =
            Wire.wait_until (start +. (float_of_int k *. poll_interval));
            let text = Wire.request_text rc Proto.Stats in
            let t = Util.now () and a = Util.stats_int text "applied_lsn" in
            samples := (t, a) :: !samples;
            (* timed from its own send: the poll cadence, not the
               read, is what runs on a schedule here *)
            if k mod read_every_polls = 0 then
              Wire.do_read tally rc ~due:(Util.now ()) (point_read (pick rngs.(1) pool.points));
            let last = match !round_acks with (l, _) :: _ -> l | [] -> 0 in
            let done_ = !writer_done && a >= last in
            if (not done_) && Util.now () < deadline then poll (k + 1)
          in
          poll 0);
      ];
    let samples = List.rev !samples in
    (match samples with
    | (t, _) :: rest ->
        ignore
          (List.fold_left
             (fun prev (t, _) ->
               polls := (t -. prev) :: !polls;
               t)
             t rest)
    | [] -> ());
    List.iter
      (fun (lsn, t_ack) ->
        match List.find_opt (fun (t, a) -> t >= t_ack && a >= lsn) samples with
        | Some (t, _) -> lags := (t -. t_ack) :: !lags
        | None -> fail "write at lsn %d never became visible on the replica" lsn)
      !round_acks;
    acks := !round_acks @ !acks
  in
  (* per-round medians, reported to show the drift within a run *)
  let round_p50s = ref [] in
  let newest n xs = List.filteri (fun i _ -> i < n) xs in
  for _ = 1 to rounds do
    let nr = List.length tally.read_lat and nw = List.length tally.write_lat in
    (match cfg.workload with Read -> read_round () | Replicate -> replicate_round ());
    let med xs n = ms (Util.median (newest (List.length xs - n) xs)) in
    round_p50s := (med tally.read_lat nr, med tally.write_lat nw) :: !round_p50s;
    for _ = 1 to starts_per_round do
      sample_start ()
    done
  done;
  let round_p50s = List.rev !round_p50s in
  Util.say "samples round_read_p50_ms %s"
    (String.concat " " (List.map (fun (r, _) -> Printf.sprintf "%.4f" r) round_p50s));
  Util.say "samples round_write_p50_ms %s"
    (String.concat " " (List.map (fun (_, w) -> Printf.sprintf "%.3f" w) round_p50s));
  let after = Wire.stats p in
  let d key = Util.stats_int after key - Util.stats_int before key in
  let txns_per_commit =
    if d "batches" > 0 then float_of_int (d "batched") /. float_of_int (d "batches") else 0.
  in
  let writes_rejected = d "writes_rejected" in
  let last_lsn = List.fold_left (fun m (l, _) -> max m l) 0 !acks in
  (* correctness gate *)
  let lookup c uid =
    Wire.request_text c (Proto.Query (Printf.sprintf "(uid=%s)" uid))
  in
  let check_writes c =
    List.iter
      (fun (uid, dn) ->
        match Util.split_lines (lookup c uid) with
        | [ "1"; got ] when got = dn -> ()
        | _ -> fail "acknowledged add %s missing" dn)
      ws.alive;
    List.iter
      (fun (uid, dn) ->
        match Util.split_lines (lookup c uid) with
        | [ "0" ] -> ()
        | _ -> fail "acknowledged delete %s still present" dn)
      ws.gone
  in
  let catchups = ref [ first_catchup ] in
  (match cfg.workload with
  | Read ->
      let q = Option.get probe in
      let c = Wire.connect q in
      check_writes c;
      Client.close c;
      note_hwm q;
      Wire.shutdown q;
      note_hwm p;
      Wire.shutdown p
  | Replicate ->
      let pc = Wire.connect p in
      let plsn = Util.stats_int (Wire.request_text pc Proto.Stats) "lsn" in
      let rec wait_lsn k =
        let a = Util.stats_int (Wire.request_text rc Proto.Stats) "applied_lsn" in
        if a < plsn then
          if k > 5000 then fail "replica stuck at lsn %d < primary %d" a plsn
          else begin
            Unix.sleepf 0.002;
            wait_lsn (k + 1)
          end
      in
      wait_lsn 0;
      let fixed =
        List.concat_map (fun (_, a) -> Array.to_list (Array.sub a 0 (min 6 (Array.length a)))) pool.pools
        @ List.init 24 (fun i -> point_read pool.points.(i * 7 mod Array.length pool.points))
      in
      List.iter
        (fun (rd : read) ->
          let a = Wire.request_text pc rd.req and b = Wire.request_text rc rd.req in
          if a <> b then fail "replica answers %s differently" (Proto.encode_request rd.req)
          else match check_reply rd a with Ok () -> () | Error e -> fail "%s" e)
        fixed;
      check_writes rc;
      check_writes pc;
      Client.close pc;
      rstats_end := stop_replica ();
      (* durability: every acknowledged write survives kill -9 *)
      note_hwm p;
      Wire.kill9 p;
      let p2 = serve "primary2.out" in
      ignore (Wire.ready p2 probe_read);
      let c = Wire.connect p2 in
      check_writes c;
      let lsn = Util.stats_int (Wire.request_text c Proto.Stats) "lsn" in
      if lsn < last_lsn then fail "recovered lsn %d < last acknowledged %d" lsn last_lsn;
      Client.close c;
      note_hwm p2;
      Wire.shutdown p2;
      (* more catch-up samples, one per spare copy *)
      List.iter
        (fun dir ->
          let p, ready = start dir in
          readies := ready :: !readies;
          let r, rc, sample = catch_up p dir in
          catchups := sample :: !catchups;
          note_hwm r;
          Client.close rc;
          Wire.shutdown r;
          note_hwm p;
          Wire.shutdown p)
        spares);
  Util.say "samples ready_s %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev !readies)));
  Util.say "samples catchup_rps %s"
    (String.concat " " (List.map (fun (x, _) -> Printf.sprintf "%.0f" x) (List.rev !catchups)));
  let ready_s = Util.median !readies in
  let catchup_rps = Util.median (List.map fst !catchups) in
  let applied_per_s = Util.median (List.map snd !catchups) in
  let rs = !rstats_end in
  {
    setup_s;
    setups = List.map (fun (_, _, tm, _) -> tm) built;
    ready_s;
    peak_rss_mb = !hwm;
    catchup_rps;
    catchup_n = List.length !catchups;
    applied_per_s;
    tally;
    lags = !lags;
    polls = !polls;
    txns_per_commit;
    writes_rejected;
    reconnects = Util.stats_int rs "reconnects";
    boots = Util.stats_int rs "boots";
    gate = List.rev !gate;
  }
  |> fun w -> (w, inst, pool)

(* --- reporting ----------------------------------------------------------- *)

let metric name value unit_ = { Util.name; value; unit_ }

(* A percentile metric, with its sample count in the report; a run that
   leaves fewer than [Util.min_beyond] samples beyond it is invalid
   (small mode excepted). *)
let pct ~small ~invalid name p xs =
  let n = List.length xs in
  let v = ms (Util.percentile p xs) in
  Util.say "metric %s %.4f ms n=%d beyond=%d" name v n (Util.beyond p n);
  if (not small) && Util.beyond p n < Util.min_beyond then
    invalid := Printf.sprintf "%s: only %d samples beyond p%g" name (Util.beyond p n) p :: !invalid;
  metric name v "ms"

let end_to_end cfg w invalid =
  let t = w.tally in
  let pct = pct ~small:cfg.small ~invalid in
  let read_ok = List.length t.read_lat in
  let read_p50 = pct "read_p50_ms" 50. t.read_lat in
  let write_p50 = pct "write_p50_ms" 50. t.write_lat in

  let m =
    [
      metric "setup_s" w.setup_s "s";
      metric "ready_s" w.ready_s "s";
      metric "peak_rss_mb" w.peak_rss_mb "MB";
      read_p50;
      write_p50;
    ]
  in
  (* reported, not part of the result line: see README.md *)
  ignore (pct "read_p99_ms" 99. t.read_lat);
  ignore (pct "write_p90_ms" 90. t.write_lat);
  let attempted = Wire.attempted t in
  Util.say "metric failed_frac %.6f n=%d"
    (float_of_int (Wire.failed t) /. float_of_int (max 1 attempted)) attempted;
  (match cfg.workload with
  | Read ->
      Util.say "metric read_rps %.2f 1/s n=%d" (float_of_int read_ok /. (read_share *. cfg.seconds)) read_ok
  | Replicate ->
      Util.say "metric catchup_rps %.2f 1/s n=%d" w.catchup_rps w.catchup_n;
      ignore (pct "replica_lag_p50_ms" 50. w.lags);
      ignore (pct "replica_lag_p90_ms" 90. w.lags);
      Util.say "metric lag_poll_interval_ms %.4f n=%d (against replica_lag_p50_ms)"
        (ms (Util.mean w.polls)) (List.length w.polls));
  m

let per_layer_wire w =
  [
    metric "net.txns_per_commit" w.txns_per_commit "count";
    metric "net.writes_rejected" (float_of_int w.writes_rejected) "count";
    metric "replica.reconnects" (float_of_int w.reconnects) "count";
    metric "replica.boots" (float_of_int w.boots) "count";
    metric "replica.applied_per_s" w.applied_per_s "1/s";
    metric "setup.generate_s" (Util.median (List.map (fun t -> t.generate_s) w.setups)) "s";
    metric "setup.init_s" (Util.median (List.map (fun t -> t.init_s) w.setups)) "s";
    metric "setup.tail_s" (Util.median (List.map (fun t -> t.tail_s) w.setups)) "s";
    metric "gen.late_p99_ms" (ms (Util.percentile 99. w.tally.late)) "ms";
  ]

(* --- the traced run ------------------------------------------------------ *)

let per_layer_trace cfg inst pool invalid =
  let rng = Random.State.make [| cfg.seed; 0x7eace |] in
  (* small mode keeps enough roots of each kind that one preemption in
     the tracer's glue cannot fail the reconciliation check alone *)
  let n_reads = if cfg.small then 600 else 1500 in
  let plan =
    {
      Trace.pool;
      reads = List.init n_reads (fun _ -> draw_read rng pool);
      writes = (if cfg.small then 6 else 48);
      after_write_rounds = 12;
      mixed = cfg.workload <> Read;
      seed = cfg.seed;
      tag = Printf.sprintf "%d" cfg.seed;
    }
  in
  let src = Filename.concat cfg.dir "pristine" in
  (* spans off, on, off again: the overhead compares the traced replay
     with the mean of the two untraced ones around it, so the order of
     the replays does not bias it *)
  let replay name on =
    Gc.compact ();
    Trace.replay ~inst ~src ~work:(Filename.concat cfg.dir name) ~on plan
  in
  let off1 = replay "trace_off1" false in
  let on = replay "trace_on" true in
  let off2 = replay "trace_off2" false in
  let spans = Trace.spans () in
  let off_elapsed = (off1.elapsed +. off2.elapsed) /. 2. in
  let per_span = Trace.calibrate () in
  let a = Trace.analyse ~per_span spans in
  Util.say "trace roots %d, %d held to the tenth in aggregate only (minor GC)"
    (List.length a.roots)
    (List.length (List.filter (fun (r : Trace.span) -> r.minors > 0) a.roots));
  Util.say "trace cover %s"
    (String.concat " "
       (List.map (fun (name, n, c) -> Printf.sprintf "%s:%d:%.1f%%" name n (100. *. c)) a.cover));
  List.iter (fun e -> invalid := ("trace: " ^ e) :: !invalid) (off1.wrong @ on.wrong @ off2.wrong);
  List.iter (fun e -> invalid := ("trace: " ^ e) :: !invalid) a.problems;
  let med ~under name = Util.median (Trace.durations a ~under name) in
  let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let cls_metrics =
    List.concat_map
      (fun c ->
        let n = cls_name c in
        let res = List.filter_map (fun (k, v) -> if k = n then Some (float_of_int v) else None) on.results in
        [
          metric ("query.eval_ms." ^ n) (ms (med ~under:("req.read." ^ n) "query.eval")) "ms";
          metric ("query.eval_after_write_ms." ^ n) (ms (med ~under:("req.after." ^ n) "query.eval")) "ms";
          metric ("query.results_per_read." ^ n) (Util.mean res) "count";
        ])
      classes
  in
  let gc kind roots =
    let rs = Trace.roots_named a roots in
    [
      metric ("gc.minor_mb." ^ kind)
        (Util.mean (List.map (fun (r : Trace.span) -> r.minor_words *. 8. /. 1048576.) rs))
        "MB";
      metric ("gc.major." ^ kind)
        (Util.mean (List.map (fun (r : Trace.span) -> float_of_int r.major) rs))
        "count";
    ]
  in
  let open_s = Util.median (List.map Trace.dur (Trace.roots_named a "req.open")) in
  let open_read_s =
    List.fold_left ( +. ) 0. (Trace.durations a ~under:"req.open" "store.read")
  in
  [
    metric "net.decode_us" (1e6 *. med ~under:"req.read." "net.decode") "us";
    metric "net.reply_ms" (ms (med ~under:"req.read." "net.reply")) "ms";
    metric "net.reply_kb" (Util.mean (List.map (fun n -> float_of_int n /. 1024.) on.reply_bytes)) "KB";
    metric "net.ship_codec_us" (1e6 *. med ~under:"req.ship" "net.ship_codec") "us";
    metric "codec.parse_changes_ms" (ms (med ~under:"req.write" "codec.parse_changes")) "ms";
    metric "core.admit_ms" (ms (med ~under:"req.write" "core.admit")) "ms";
    metric "core.publish_ms" (ms (med ~under:"req.write" "core.publish")) "ms";
    metric "core.memo_migrated_per_write" (per on.memo_migrated on.writes_done) "count";
    metric "core.memo_dropped_per_write" (per on.memo_dropped on.writes_done) "count";
    metric "query.parse_us" (1e6 *. med ~under:"req.read." "query.parse") "us";
  ]
  @ cls_metrics
  @ [
      metric "store.append_ms" (ms (med ~under:"req.write" "store.append")) "ms";
      metric "store.appends_per_write" (per on.write_appends on.writes_done) "count";
      metric "store.wal_bytes_per_write" (per on.write_bytes on.writes_done) "B";
      metric "store.wal_bytes_per_ldif_byte" (per on.write_bytes on.ldif_bytes) "ratio";
      metric "store.open_s" open_s "s";
      metric "store.open_read_s" open_read_s "s";
      metric "store.open_rebuild_s" (open_s -. open_read_s) "s";
      metric "store.replayed" (float_of_int on.opened.Store.replayed) "count";
      metric "store.first_query_ms"
        (ms (Util.median (List.map Trace.dur (Trace.roots_named a "req.first_query")))) "ms";
      metric "store.records_from_ms" (ms (med ~under:"req.records_from" "store.records_from")) "ms";
      metric "store.replica_apply_ms" (ms (med ~under:"req.ship" "store.replica_apply")) "ms";
      metric "store.replica_appends_per_record" (per on.replica_io.appends on.records) "count";
    ]
  @ gc "write" "req.write" @ gc "read" "req.read." @ gc "open" "req.open"
  @ [
      metric "trace.overhead_pct" (100. *. ((on.elapsed /. off_elapsed) -. 1.)) "%";
      metric "trace.roots_outside_pct" (100. *. a.outside_share) "%";
      metric "trace.span_cost_ns" (1e9 *. per_span) "ns";
    ]

(* --- main ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: wirebench.exe --ldapschema EXE --dir DIR --workload read|replicate \
     --seed N --seconds S --trace 0|1 [--small]";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | "--small" :: rest -> go (("small", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload =
    match get "workload" with
    | "read" -> Read
    | "replicate" -> Replicate
    | _ -> usage ()
  in
  {
    workload;
    seed = int_of_string (get "seed");
    seconds = float_of_string (get "seconds");
    traced = get "trace" = "1";
    small = List.mem_assoc "small" kv;
    exe = get "ldapschema";
    dir = get "dir";
  }

let () =
  let cfg = parse_args () in
  at_exit Wire.kill_all;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  rm_rf cfg.dir;
  Unix.mkdir cfg.dir 0o755;
  let w, inst, pool = wire_run cfg in
  Wire.report w.tally;
  let invalid = ref [] in
  if w.tally.backlog then invalid := "open-loop backlog grew" :: !invalid;
  let metrics =
    let e2e = end_to_end cfg w invalid in
    if cfg.traced then per_layer_wire w @ per_layer_trace cfg inst pool invalid else e2e
  in
  List.iter
    (fun (m : Util.metric) ->
      if Float.is_nan m.value then invalid := (m.name ^ ": no samples") :: !invalid)
    metrics;
  List.iter (fun e -> Util.say "gate %s" e) w.gate;
  List.iter (fun e -> Util.say "invalid %s" e) !invalid;
  if !invalid <> [] then begin
    prerr_endline "wirebench: run invalid";
    exit 1
  end;
  let correct = w.gate = [] && w.tally.wrong = [] in
  print_endline
    (Util.result_json ~correct ~attempted:(Wire.attempted w.tally) ~failed:(Wire.failed w.tally)
       metrics)
