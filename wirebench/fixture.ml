(* The benchmark's data: a white-pages directory in a primary store, a
   replica store installed from the lsn-0 bootstrap package, and a WAL
   tail on the primary; plus the seeded read mix and write stream every
   phase draws from, with the answers each read must get.

   Every write the benchmark makes (tail and wire) adds a plain
   staffmember under one of the reserved "write units", with a uid and
   name outside every read's range.  So the read answers computed here
   from the generated instance stay exact while writes run. *)

open Bounds_model
module Store = Bounds_store.Store
module Io = Bounds_store.Io
module Proto = Bounds_net.Proto
module WP = Bounds_workload.White_pages

type size = {
  units : int;
  persons : int;  (** per unit *)
  tail : int;  (** single-entry transactions in the WAL tail *)
}

let full = { units = 100; persons = 49; tail = 2000 }
let small = { units = 30; persons = 20; tail = 200 }

(* Every [write_stride]th unit takes the writes; reads never look under
   those units. *)
let write_stride = 10
let is_write_unit u = u mod write_stride = 0

(* --- set-up ---------------------------------------------------------- *)

(* The directory itself does not vary with the run's seed: the seed
   drives the request streams (and the read pools), so runs with
   different seeds differ in what they ask, not in what they ask it of. *)
let fixture_seed = 1

type timings = { generate_s : float; init_s : float; tail_s : float }

let primary_dir dir = Filename.concat dir "primary"
let replica_dir dir = Filename.concat dir "replica"

let unit_ids inst =
  Instance.fold
    (fun e acc ->
      if Entry.has_class e (Oclass.of_string "orgunit") then
        match String.split_on_char '=' (Entry.rdn e) with
        | [ _; name ] -> (int_of_string (String.sub name 4 (String.length name - 4)), Entry.id e) :: acc
        | _ -> acc
      else acc)
    inst []
  |> List.sort compare

let staff_entry ~id ~uid ~name =
  Entry.make ~id ~rdn:("uid=" ^ uid)
    ~classes:(Oclass.set_of_list [ "staffmember"; "person"; "top" ])
    [ (Attr.of_string "uid", Value.String uid); (Attr.of_string "name", Value.String name) ]

(* Generate, init (primary, and the replica from the lsn-0 bootstrap
   package), then write the tail through [Store.batch]/[Store.apply]. *)
let build ~dir size =
  Unix.mkdir dir 0o755;
  let inst, generate_s =
    Util.time (fun () ->
        WP.generate ~seed:fixture_seed ~units:size.units ~persons_per_unit:size.persons ())
  in
  let st, init_s =
    Util.time (fun () ->
        let st =
          match Store.init (Io.real ~root:(primary_dir dir) ()) WP.schema inst with
          | Ok st -> st
          | Error e -> failwith ("init: " ^ Store.error_to_string e)
        in
        let schema, checkpoint, _lsn = Store.boot_blob st in
        (match
           Store.install_snapshot (Io.real ~root:(replica_dir dir) ()) ~schema ~checkpoint
         with
        | Ok () -> ()
        | Error e -> failwith ("replica install: " ^ e));
        st)
  in
  let wunits =
    List.filter_map (fun (u, id) -> if is_write_unit u then Some id else None) (unit_ids inst)
    |> Array.of_list
  in
  let (), tail_s =
    Util.time (fun () ->
        let next = ref (Instance.fresh_id inst) in
        let i = ref 0 in
        while !i < size.tail do
          ignore
            (Store.batch st (fun () ->
                 for _ = 1 to 50 do
                   if !i < size.tail then begin
                     let uid = Printf.sprintf "t%d" !i in
                     let entry = staff_entry ~id:!next ~uid ~name:("tail " ^ uid) in
                     incr next;
                     let r =
                       Store.apply st
                         [ Update.Insert { parent = Some wunits.(!i mod Array.length wunits); entry } ]
                     in
                     if not (Bounds_core.Admission.accepted r) then
                       failwith "tail transaction rejected";
                     incr i
                   end
                 done))
        done;
        Store.close st)
  in
  (inst, { generate_s; init_s; tail_s })

(* --- the read mix ---------------------------------------------------- *)

type cls = Point | Onelevel | Range | Substring | Structural | Class

let classes = [ Point; Onelevel; Range; Substring; Structural; Class ]

let cls_name = function
  | Point -> "point"
  | Onelevel -> "onelevel"
  | Range -> "range"
  | Substring -> "substring"
  | Structural -> "structural"
  | Class -> "class"

(* Read-class weights, in percent. *)
let weight = function
  | Point -> 86
  | Onelevel -> 5
  | Range -> 2
  | Substring -> 2
  | Structural -> 3
  | Class -> 2

type expect = Dn of string | Count of int

type read = { cls : cls; req : Proto.request; expect : expect }

type reads = {
  points : (string * string) array;  (** fixture uid, its DN *)
  pools : (cls * read array) list;  (** every class but [Point] *)
}

let point_read (uid, dn) =
  { cls = Point; req = Proto.Query (Printf.sprintf "(uid=%s)" uid); expect = Dn dn }

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Pools of parameterised reads per class, with expected answer counts
   from direct filter evaluation over the instance (and, for the χ and
   minus queries, from a freshly built snapshot). *)
let reads ~seed inst size =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let units = unit_ids inst in
  let read_units = List.filter (fun (u, _) -> not (is_write_unit u)) units |> Array.of_list in
  let points =
    Instance.fold
      (fun e acc ->
        if Entry.has_class e (Oclass.of_string "person") then
          match Entry.values e (Attr.of_string "uid") with
          | [ v ] -> (Value.to_string v, Instance.dn inst (Entry.id e)) :: acc
          | _ -> acc
        else acc)
      inst []
    |> List.sort compare |> Array.of_list
  in
  let count f =
    Instance.fold (fun e n -> if Bounds_query.Filter.matches f e then n + 1 else n) inst 0
  in
  let filter s = Bounds_query.Filter_parser.parse_exn s in
  let snap = lazy (Bounds_core.Directory.Snapshot.of_instance inst) in
  let query text =
    let q = Bounds_query.Query_parser.parse_exn text in
    List.length (Bounds_core.Directory.Snapshot.query_ids (Lazy.force snap) q)
  in
  let n = 48 in
  let u () = fst (pick rng read_units) in
  let digit () = 1 + Random.State.int rng (min 9 size.persons) in
  let onelevel =
    Array.init n (fun _ ->
        let _, id = pick rng read_units in
        let person = Oclass.of_string "person" in
        let c =
          List.length
            (List.filter
               (fun k -> Entry.has_class (Instance.entry inst k) person)
               (Instance.children inst id))
        in
        {
          cls = Onelevel;
          req =
            Proto.Search
              { base = Some (Instance.dn inst id); scope = "one"; filter = "(objectClass=person)" };
          expect = Count c;
        })
  in
  let range =
    Array.init n (fun _ ->
        let u = u () in
        let a = digit () in
        let b = a + Random.State.int rng (10 - a) in
        let f = Printf.sprintf "(&(uid>=u%dp%d)(uid<=u%dp%d))" u a u b in
        { cls = Range; req = Proto.Query f; expect = Count (count (filter f)) })
  in
  let substring =
    Array.init n (fun _ ->
        let f = Printf.sprintf "(name=*of u%dp%d*)" (u ()) (digit ()) in
        { cls = Substring; req = Proto.Query f; expect = Count (count (filter f)) })
  in
  let structural =
    Array.init n (fun i ->
        let q =
          match i mod 4 with
          | 0 -> "(chi c (objectClass=orgUnit) (objectClass=facultyMember))"
          | 1 ->
              "(minus (objectClass=orgUnit) (chi d (objectClass=orgUnit) \
               (objectClass=facultyMember)))"
          | 2 -> Printf.sprintf "(chi p (objectClass=researcher) (ou=unit%d))" (u ())
          | _ -> Printf.sprintf "(chi a (objectClass=facultyMember) (ou=unit%d))" (u ())
        in
        { cls = Structural; req = Proto.Query q; expect = Count (query q) })
  in
  let f = "(objectClass=researcher)" in
  let cls = [| { cls = Class; req = Proto.Query f; expect = Count (count (filter f)) } |] in
  {
    points;
    pools =
      [ (Onelevel, onelevel); (Range, range); (Substring, substring);
        (Structural, structural); (Class, cls) ];
  }

let read_of_cls rng r = function
  | Point -> point_read (pick rng r.points)
  | c -> pick rng (List.assoc c r.pools)

let draw_read rng r =
  let x = Random.State.int rng 100 in
  let rec go acc = function
    | [] -> assert false
    | c :: rest -> if x < acc + weight c then c else go (acc + weight c) rest
  in
  read_of_cls rng r (go 0 classes)

(* [Ok ()] when a reply body carries the expected answer. *)
let check_reply read body =
  match (Util.split_lines body, read.expect) with
  | [ "1"; dn ], Dn want when dn = want -> Ok ()
  | n :: _, Count c when int_of_string_opt n = Some c -> Ok ()
  | _ ->
      Error
        (Printf.sprintf "%s %s: unexpected reply %S" (cls_name read.cls)
           (Proto.encode_request read.req)
           (if String.length body > 120 then String.sub body 0 120 ^ "..." else body))

(* --- the write stream ------------------------------------------------ *)

type wkind = Add | Delete | Readd

let wkind_name = function Add -> "add" | Delete -> "delete" | Readd -> "readd"

type write = { kind : wkind; dn : string; uid : string; text : string }

(* Writes are drawn from a seeded state: adds of fresh persons, deletes
   of persons this stream added, and re-adds of persons it deleted (so
   one DN cycles through delete and re-add).  Choices depend only on
   acknowledged writes, so every write is legal; [ack] must be called,
   in order, for each acknowledged write.  A delete and a re-add of one
   DN are separate transactions: in one transaction the insert-first
   intermediate of Theorem 4.1 holds both copies of the key [uid], and
   admission rejects it by design. *)
type wstream = {
  wrng : Random.State.t;
  tag : string;
  parents : string array;  (** write-unit DNs *)
  mutable serial : int;
  mutable alive : (string * string) list;  (** uid, dn: present *)
  mutable gone : (string * string) list;  (** uid, dn: deleted, not re-added *)
  mixed : bool;
}

let wstream ~seed ~tag ~mixed inst =
  let parents =
    List.filter_map
      (fun (u, id) -> if is_write_unit u then Some (Instance.dn inst id) else None)
      (unit_ids inst)
    |> Array.of_list
  in
  { wrng = Random.State.make [| seed; 0x3717e |]; tag; parents; serial = 0;
    alive = []; gone = []; mixed }

let add_record ~dn ~uid =
  String.concat "\n"
    [ "dn: " ^ dn; "changetype: add"; "objectClass: staffmember"; "objectClass: person";
      "objectClass: top"; "uid: " ^ uid; "name: writer " ^ uid ]

let delete_record ~dn = String.concat "\n" [ "dn: " ^ dn; "changetype: delete" ]

let next_write s =
  let x = Random.State.int s.wrng 100 in
  let nth l = List.nth l (Random.State.int s.wrng (List.length l)) in
  if s.mixed && List.length s.alive >= 4 && x < 25 then
    let uid, dn = nth s.alive in
    { kind = Delete; dn; uid; text = delete_record ~dn }
  else if s.mixed && s.gone <> [] && x < 40 then
    let uid, dn = nth s.gone in
    { kind = Readd; dn; uid; text = add_record ~dn ~uid }
  else begin
    let uid = Printf.sprintf "w%s-%d" s.tag s.serial in
    s.serial <- s.serial + 1;
    let dn = Printf.sprintf "uid=%s,%s" uid (pick s.wrng s.parents) in
    { kind = Add; dn; uid; text = add_record ~dn ~uid }
  end

let ack s w =
  match w.kind with
  | Add -> s.alive <- (w.uid, w.dn) :: s.alive
  | Delete ->
      s.alive <- List.remove_assoc w.uid s.alive;
      s.gone <- (w.uid, w.dn) :: s.gone
  | Readd ->
      s.gone <- List.remove_assoc w.uid s.gone;
      s.alive <- (w.uid, w.dn) :: s.alive

(* "applied N ops at lsn L" *)
let ack_lsn body =
  match String.split_on_char ' ' body with
  | [ "applied"; _; "ops"; "at"; "lsn"; l ] -> int_of_string_opt l
  | _ -> None
