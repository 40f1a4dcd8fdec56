module Imap = Map.Make (Int)

(* Once a node has more than [index_fanout] children, they are also filed
   by a hash of their normalized rdn (trimmed of [String.trim]'s blanks,
   ASCII case folded), so DN resolution finds a child in O(log fanout)
   instead of comparing every sibling.  A bucket holds the ids of equal
   rdns — siblings may repeat — plus the rare hash collision, which
   resolution tells apart by comparing rdns.  Narrower nodes keep an
   empty map and are scanned: cheaper than maintaining it on every add.
   Invariant: a non-empty map files every child of its node. *)
type kids = Entry.id list Imap.t

let index_fanout = 64

type node = {
  entry : Entry.t;
  parent : Entry.id option;
  rev_children : Entry.id list; (* most recently added first *)
  kids : kids;
}

type t = {
  nodes : node Imap.t;
  rev_roots : Entry.id list;
  root_kids : kids;
  size : int;
  max_id : int;
}

type error =
  | Duplicate_id of Entry.id
  | No_such_entry of Entry.id
  | Not_a_leaf of Entry.id
  | Id_clash of Entry.id

let error_to_string = function
  | Duplicate_id id -> Printf.sprintf "duplicate entry id %d" id
  | No_such_entry id -> Printf.sprintf "no such entry: %d" id
  | Not_a_leaf id -> Printf.sprintf "entry %d is not a leaf" id
  | Id_clash id -> Printf.sprintf "grafted subtree reuses existing id %d" id

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let empty =
  { nodes = Imap.empty; rev_roots = []; root_kids = Imap.empty; size = 0; max_id = -1 }
let size t = t.size
let is_empty t = t.size = 0
let mem t id = Imap.mem id t.nodes

let node t id =
  match Imap.find_opt id t.nodes with
  | Some n -> Ok n
  | None -> Error (No_such_entry id)

let entry t id =
  match Imap.find_opt id t.nodes with
  | Some n -> n.entry
  | None -> raise Not_found

let find t id = Option.map (fun n -> n.entry) (Imap.find_opt id t.nodes)

let parent t id =
  match Imap.find_opt id t.nodes with Some n -> n.parent | None -> None

let children t id =
  match Imap.find_opt id t.nodes with
  | Some n -> List.rev n.rev_children
  | None -> []

let rev_children t id =
  match Imap.find_opt id t.nodes with Some n -> n.rev_children | None -> []

let roots t = List.rev t.rev_roots
let rev_roots t = t.rev_roots
let is_leaf t id = children t id = []
let is_root t id = parent t id = None && mem t id

(* Rdns are compared and hashed in their normalized form without
   building it: trimmed bounds, [Char.lowercase_ascii] per byte. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let rec trim_lo s lo hi =
  if lo < hi && is_blank s.[lo] then trim_lo s (lo + 1) hi else lo

let rec trim_hi s lo hi =
  if hi > lo && is_blank s.[hi - 1] then trim_hi s lo (hi - 1) else hi

let rec same_ci s a t b n =
  n = 0
  || Char.lowercase_ascii s.[a] = Char.lowercase_ascii t.[b]
     && same_ci s (a + 1) t (b + 1) (n - 1)

let rdn_matches rdn dn lo hi =
  let a = trim_lo rdn 0 (String.length rdn) in
  let b = trim_hi rdn a (String.length rdn) in
  b - a = hi - lo && same_ci rdn a dn lo (hi - lo)

let rec fold_hash s i hi h =
  if i >= hi then h
  else fold_hash s (i + 1) hi ((h * 31) + Char.code (Char.lowercase_ascii s.[i]))

let range_hash s lo hi = fold_hash s lo hi 17 land max_int

let rdn_hash rdn =
  let a = trim_lo rdn 0 (String.length rdn) in
  range_hash rdn a (trim_hi rdn a (String.length rdn))

let file_kid id rdn kids =
  Imap.update (rdn_hash rdn)
    (function None -> Some [ id ] | Some l -> Some (id :: l))
    kids

let rec longer_than k = function
  | [] -> false
  | _ :: tl -> k = 0 || longer_than (k - 1) tl

(* The map of a node whose children are now [rev_children], [id] (with
   [rdn]) just added among them: filed if the node is indexed, built
   whole when it grows past [index_fanout]. *)
let kids_with nodes id rdn kids rev_children =
  if not (Imap.is_empty kids) then file_kid id rdn kids
  else if longer_than index_fanout rev_children then
    List.fold_left
      (fun m c ->
        file_kid c (if c = id then rdn else Entry.rdn (Imap.find c nodes).entry) m)
      Imap.empty rev_children
  else kids

let unfile_kid id rdn kids =
  Imap.update (rdn_hash rdn)
    (function
      | None -> None
      | Some l -> (
          match List.filter (fun k -> k <> id) l with [] -> None | l -> Some l))
    kids

let ( let* ) = Result.bind

let add ~parent:p e t =
  let id = Entry.id e in
  if Imap.mem id t.nodes then Error (Duplicate_id id)
  else
    match p with
    | None ->
        Ok
          {
            nodes =
              Imap.add id
                { entry = e; parent = None; rev_children = []; kids = Imap.empty }
                t.nodes;
            rev_roots = id :: t.rev_roots;
            root_kids =
              kids_with t.nodes id (Entry.rdn e) t.root_kids (id :: t.rev_roots);
            size = t.size + 1;
            max_id = max t.max_id id;
          }
    | Some pid ->
        let* pn = node t pid in
        let nodes =
          t.nodes
          |> Imap.add pid
               {
                 pn with
                 rev_children = id :: pn.rev_children;
                 kids =
                   kids_with t.nodes id (Entry.rdn e) pn.kids (id :: pn.rev_children);
               }
          |> Imap.add id
               { entry = e; parent = Some pid; rev_children = []; kids = Imap.empty }
        in
        Ok { t with nodes; size = t.size + 1; max_id = max t.max_id id }

let add_root e t = add ~parent:None e t
let add_child ~parent e t = add ~parent:(Some parent) e t

let add_root_exn e t =
  match add_root e t with
  | Ok t -> t
  | Error err -> invalid_arg (error_to_string err)

let add_child_exn ~parent e t =
  match add_child ~parent e t with
  | Ok t -> t
  | Error err -> invalid_arg (error_to_string err)

(* Unlink [n] (entry [id]) from its parent's child lists, or the roots'. *)
let detach id n t =
  let rdn = Entry.rdn n.entry in
  match n.parent with
  | None ->
      {
        t with
        rev_roots = List.filter (fun r -> r <> id) t.rev_roots;
        root_kids = unfile_kid id rdn t.root_kids;
      }
  | Some pid -> (
      match Imap.find_opt pid t.nodes with
      | None -> t
      | Some pn ->
          let rev_children = List.filter (fun c -> c <> id) pn.rev_children in
          let kids = unfile_kid id rdn pn.kids in
          { t with nodes = Imap.add pid { pn with rev_children; kids } t.nodes })

let remove_leaf id t =
  let* n = node t id in
  if n.rev_children <> [] then Error (Not_a_leaf id)
  else
    let t = detach id n t in
    Ok { t with nodes = Imap.remove id t.nodes; size = t.size - 1 }

let rec preorder_ids t id acc =
  (* accumulates in reverse preorder *)
  List.fold_left (fun acc c -> preorder_ids t c acc) (id :: acc) (children t id)

let subtree_ids t id = List.rev (preorder_ids t id [])

let remove_subtree id t =
  let* n = node t id in
  let victims = subtree_ids t id in
  let t = detach id n t in
  let nodes = List.fold_left (fun m v -> Imap.remove v m) t.nodes victims in
  Ok { t with nodes; size = t.size - List.length victims }

let subtree t id =
  let* root = node t id in
  let rec copy src_id dst_parent acc =
    match add ~parent:dst_parent (entry t src_id) acc with
    | Error _ -> assert false (* ids unique in source *)
    | Ok acc ->
        List.fold_left (fun acc c -> copy c (Some src_id) acc) acc (children t src_id)
  in
  ignore root;
  Ok (copy id None empty)

let graft ~parent:pid sub t =
  let clash =
    Imap.fold
      (fun id _ acc -> match acc with Some _ -> acc | None -> if mem t id then Some id else None)
      sub.nodes None
  in
  match clash with
  | Some id -> Error (Id_clash id)
  | None -> (
      let* () = match pid with
        | None -> Ok ()
        | Some p -> let* _ = node t p in Ok ()
      in
      let rec copy src_id dst_parent acc =
        match add ~parent:dst_parent (entry sub src_id) acc with
        | Error e -> Error e
        | Ok acc ->
            List.fold_left
              (fun acc c ->
                match acc with Error _ -> acc | Ok acc -> copy c (Some src_id) acc)
              (Ok acc) (children sub src_id)
      in
      List.fold_left
        (fun acc r -> match acc with Error _ -> acc | Ok acc -> copy r pid acc)
        (Ok t) (roots sub))

let update_entry id f t =
  let* n = node t id in
  let e' = f n.entry in
  if Entry.id e' <> id then
    invalid_arg "Instance.update_entry: the update must preserve the entry id";
  let t = { t with nodes = Imap.add id { n with entry = e' } t.nodes } in
  let old_rdn = Entry.rdn n.entry and rdn = Entry.rdn e' in
  if String.equal old_rdn rdn then Ok t
  else
    (* a renamed entry is refiled under its new rdn *)
    let refile kids =
      if Imap.is_empty kids then kids else file_kid id rdn (unfile_kid id old_rdn kids)
    in
    match n.parent with
    | None -> Ok { t with root_kids = refile t.root_kids }
    | Some pid ->
        let pn = Imap.find pid t.nodes in
        Ok { t with nodes = Imap.add pid { pn with kids = refile pn.kids } t.nodes }

let fold f t init = Imap.fold (fun _ n acc -> f n.entry acc) t.nodes init
let iter f t = Imap.iter (fun _ n -> f n.entry) t.nodes

let iter_preorder f t =
  let rec go depth id =
    f ~depth (entry t id);
    List.iter (go (depth + 1)) (children t id)
  in
  List.iter (go 0) (roots t)

let ids t = Imap.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.rev
let entries t = Imap.fold (fun _ n acc -> n.entry :: acc) t.nodes [] |> List.rev

let descendants t id =
  List.concat_map (fun c -> subtree_ids t c) (children t id)

let ancestors t id =
  let rec go id acc =
    match parent t id with Some p -> go p (p :: acc) | None -> List.rev acc
  in
  go id []

let is_strict_ancestor t ~anc ~desc =
  let rec go id =
    match parent t id with
    | Some p -> p = anc || go p
    | None -> false
  in
  go desc

let depth t id = List.length (ancestors t id)
let max_id t = t.max_id
let fresh_id t = t.max_id + 1

let dn t id =
  (* [ancestors] is nearest-first, so [id :: ancestors] is leaf-to-root *)
  let path = id :: ancestors t id in
  String.concat "," (List.map (fun i -> Entry.rdn (entry t i)) path)

(* Top-down descent, root component first: the component ending at [hi]
   starts after the last ',' before it and is looked up among the current
   level's children — one hash bucket, or all of them when the level is
   narrow.  Every matching sibling is explored (duplicate rdns are
   legal), and the largest id whose whole path matches wins. *)
let resolve_dn t dn =
  let rec level best kids rev_ids hi =
    let start =
      match String.rindex_from_opt dn (hi - 1) ',' with
      | Some i -> i + 1
      | None -> 0
    in
    let lo = trim_lo dn start hi in
    let hi = trim_hi dn lo hi in
    let candidates =
      if Imap.is_empty kids then rev_ids
      else Option.value (Imap.find_opt (range_hash dn lo hi) kids) ~default:[]
    in
    List.fold_left
      (fun best id ->
        let n = Imap.find id t.nodes in
        if not (rdn_matches (Entry.rdn n.entry) dn lo hi) then best
        else if start > 0 then level best n.kids n.rev_children (start - 1)
        else match best with Some b when b >= id -> best | _ -> Some id)
      best candidates
  in
  level None t.root_kids t.rev_roots (String.length dn)

let equal t1 t2 =
  t1.size = t2.size
  && Imap.for_all
       (fun id n1 ->
         match Imap.find_opt id t2.nodes with
         | None -> false
         | Some n2 -> Entry.equal n1.entry n2.entry && n1.parent = n2.parent)
       t1.nodes

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  iter_preorder
    (fun ~depth e ->
      Format.fprintf ppf "%s%s %a@ " (String.make (2 * depth) ' ') (Entry.rdn e)
        Oclass.pp_set (Entry.classes e))
    t;
  Format.fprintf ppf "@]"
