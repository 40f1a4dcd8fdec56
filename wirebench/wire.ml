(* The wire side: the real daemons in their own processes, and the load
   generator's phases against them (at most two threads, one connection
   each).  Every latency is a generator-side wall-clock span; open loops
   time each request from its due time. *)

module Proto = Bounds_net.Proto
module Client = Bounds_net.Client
open Fixture

(* --- daemons ----------------------------------------------------------- *)

type daemon = { pid : int; port : int; spawned : float }

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let forget pid = live := List.filter (( <> ) pid) !live

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Spawn [exe args], stdout and stderr to [out]; wait for the line
   announcing the bound port. *)
let spawn ~exe ~out ~marker args =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let spawned = Util.now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  live := pid :: !live;
  let port_of text =
    List.find_map
      (fun l ->
        let m = String.length marker in
        if String.length l > m && String.sub l 0 m = marker then
          let rest = String.sub l m (String.length l - m) in
          match String.index_opt rest ':' with
          | Some i ->
              let p = String.sub rest (i + 1) (String.length rest - i - 1) in
              let j = try String.index p ' ' with Not_found -> String.length p in
              int_of_string_opt (String.sub p 0 j)
          | None -> None
        else None)
      (Util.split_lines text)
  in
  let deadline = spawned +. 120. in
  let rec poll () =
    match port_of (read_file out) with
    | Some port -> { pid; port; spawned }
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            forget pid;
            failwith (Printf.sprintf "%s exited before binding: %s" exe (read_file out)));
        if Util.now () > deadline then failwith (exe ^ " never bound");
        Unix.sleepf 0.002;
        poll ()
  in
  poll ()

let connect d =
  match Client.connect ~port:d.port ~retries:50 () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

let request_text c req =
  match Client.request c req with
  | Ok (Proto.Reply s) -> s
  | Ok (Proto.Failed e) -> failwith (Proto.request_verb req ^ " failed: " ^ e)
  | Error e -> failwith (Proto.request_verb req ^ ": " ^ e)

let stats d =
  let c = connect d in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> request_text c Proto.Stats)

(* Seconds from spawn to the first successful point-lookup reply. *)
let ready d (r : read) =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let rec go () =
        match Client.request c r.req with
        | Ok (Proto.Reply body) when check_reply r body = Ok () -> Util.now () -. d.spawned
        | _ ->
            Unix.sleepf 0.001;
            go ()
      in
      go ())

(* Largest resident set the process has had, in MB. *)
let vm_hwm_mb d =
  let text = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  match
    List.find_map
      (fun l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun k -> Some k)
        else None)
      (Util.split_lines text)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM"

let reap d ~timeout =
  let deadline = Util.now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Util.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid);
          forget d.pid;
          false
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _, Unix.WEXITED 0 ->
        forget d.pid;
        true
    | _ ->
        forget d.pid;
        false
  in
  go ()

let shutdown d =
  (try
     let c = connect d in
     ignore (Client.request c Proto.Shutdown);
     Client.close c
   with _ -> ());
  if not (reap d ~timeout:30.) then failwith "daemon did not exit cleanly"

let kill9 d =
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  forget d.pid

(* --- tallies ----------------------------------------------------------- *)

(* What one phase sent: per-kind counts, latencies (seconds), lateness
   against due time, and every wrong answer. *)
type tally = {
  phase : string;
  m : Mutex.t;
  mutable sent : (string * int) list;
  mutable ok : (string * int) list;
  mutable bad : (string * int) list;
  mutable read_lat : float list;
  mutable class_lat : (string * float) list;  (** request kind, latency *)
  mutable write_lat : float list;
  mutable late : float list;
  mutable wrong : string list;
  mutable backlog : bool;
}

let tally phase =
  { phase; m = Mutex.create (); sent = []; ok = []; bad = []; read_lat = [];
    class_lat = []; write_lat = []; late = []; wrong = []; backlog = false }

let bump l k = (k, 1 + Option.value (List.assoc_opt k l) ~default:0) :: List.remove_assoc k l

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let attempted t = List.fold_left (fun a (_, n) -> a + n) 0 t.sent
let failed t = List.fold_left (fun a (_, n) -> a + n) 0 t.bad

let report t =
  List.iter
    (fun (k, n) ->
      let get l = Option.value (List.assoc_opt k l) ~default:0 in
      let lat = List.filter_map (fun (k', l) -> if k' = k then Some l else None) t.class_lat in
      Util.say "count %s %s sent %d ok %d failed %d%s" t.phase k n (get t.ok) (get t.bad)
        (if lat = [] then ""
         else
           Printf.sprintf " p50_ms %.3f p99_ms %.3f" (1e3 *. Util.median lat)
             (1e3 *. Util.percentile 99. lat)))
    (List.sort compare t.sent);
  List.iter (fun w -> Util.say "wrong %s %s" t.phase w) t.wrong

(* Run one read, verify it, and record it under [t]. *)
let do_read t c ~due r =
  let kind = "read." ^ cls_name r.cls in
  let sent_at = Util.now () in
  let res = Client.request c r.req in
  let fin = Util.now () in
  locked t (fun () ->
      t.sent <- bump t.sent kind;
      t.late <- (sent_at -. due) :: t.late;
      match res with
      | Ok (Proto.Reply body) -> (
          match check_reply r body with
          | Ok () ->
              t.ok <- bump t.ok kind;
              t.read_lat <- (fin -. due) :: t.read_lat;
              t.class_lat <- (kind, fin -. due) :: t.class_lat
          | Error e ->
              t.bad <- bump t.bad kind;
              t.wrong <- e :: t.wrong)
      | Ok (Proto.Failed e) ->
          t.bad <- bump t.bad kind;
          t.wrong <- (kind ^ ": " ^ e) :: t.wrong
      | Error e ->
          t.bad <- bump t.bad kind;
          t.wrong <- (kind ^ ": " ^ e) :: t.wrong)

(* Run one write; on acknowledgement record its lsn and ack time. *)
let do_write t c ws ~due acks =
  let w = next_write ws in
  let kind = "write." ^ wkind_name w.kind in
  let sent_at = Util.now () in
  let res = Client.request c (Proto.Apply w.text) in
  let fin = Util.now () in
  locked t (fun () ->
      t.sent <- bump t.sent kind;
      t.late <- (sent_at -. due) :: t.late;
      match res with
      | Ok (Proto.Reply body) -> (
          match ack_lsn body with
          | Some lsn ->
              ack ws w;
              acks := (lsn, fin) :: !acks;
              t.ok <- bump t.ok kind;
              t.write_lat <- (fin -. due) :: t.write_lat;
              t.class_lat <- (kind, fin -. due) :: t.class_lat
          | None ->
              t.bad <- bump t.bad kind;
              t.wrong <- ("unexpected write reply " ^ body) :: t.wrong)
      | Ok (Proto.Failed e) ->
          t.bad <- bump t.bad kind;
          t.wrong <- (kind ^ " rejected: " ^ e) :: t.wrong
      | Error e ->
          t.bad <- bump t.bad kind;
          t.wrong <- (kind ^ ": " ^ e) :: t.wrong)

(* Closed loop: each request is due when the previous one completes. *)
let closed_loop ~until step =
  let due = ref (Util.now ()) in
  while Util.now () < until do
    step ~due:!due;
    due := Util.now ()
  done

(* Sleep to just short of [t], then yield until it: a plain sleep
   oversleeps by a scheduler wake-up, which would land in every open-loop
   latency.  Yielding, not spinning, keeps the runtime lock free for the
   other generator thread. *)
let wait_until t =
  let early = t -. Util.now () -. 0.001 in
  if early > 0. then Unix.sleepf early;
  while Util.now () < t do
    Thread.yield ()
  done

(* Open loop at [rate] per second from [start] to [until].  A run whose
   final quarter is sent more than one interval late on median has a
   growing backlog and is marked invalid. *)
let open_loop t ~start ~until ~rate step =
  let interval = 1. /. rate in
  let lates = ref [] in
  let rec go k =
    let due = start +. (float_of_int k *. interval) in
    if due < until then begin
      wait_until due;
      lates := (Util.now () -. due) :: !lates;
      step ~due;
      go (k + 1)
    end
  in
  go 0;
  let n = List.length !lates in
  let last = List.filteri (fun i _ -> i < max 1 (n / 4)) !lates in
  if Util.median last > interval then locked t (fun () -> t.backlog <- true)

let in_threads fs =
  let ths = List.map (fun f -> Thread.create f ()) fs in
  List.iter Thread.join ths
