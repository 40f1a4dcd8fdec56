open Bounds_model

type error = { line : int; message : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message
let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

exception Err of error

let err line fmt = Printf.ksprintf (fun message -> raise (Err { line; message })) fmt

(* --- minimal base64 ------------------------------------------------- *)

let b64_alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_decode_char ~at c =
  match String.index_opt b64_alphabet c with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "invalid base64 character %C at offset %d" c at)

let b64_decode s =
  (* no whitespace tolerance: LDIF line folding is undone before the
     base64 text ever reaches us, so embedded newlines are corruption *)
  let n = String.length s in
  if n mod 4 <> 0 then invalid_arg "base64 length not a multiple of 4";
  (* '=' is padding, legal only as the final one or two bytes; anywhere
     else it silently truncated data before being rejected here *)
  String.iteri
    (fun i c ->
      if c = '=' && i < n - 2 then
        invalid_arg (Printf.sprintf "stray base64 padding '=' at offset %d" i))
    s;
  if n >= 2 && s.[n - 2] = '=' && s.[n - 1] <> '=' then
    invalid_arg (Printf.sprintf "stray base64 padding '=' at offset %d" (n - 2));
  let buf = Buffer.create (n * 3 / 4) in
  let i = ref 0 in
  while !i < n do
    let c0 = s.[!i] and c1 = s.[!i + 1] and c2 = s.[!i + 2] and c3 = s.[!i + 3] in
    let v0 = b64_decode_char ~at:!i c0 and v1 = b64_decode_char ~at:(!i + 1) c1 in
    Buffer.add_char buf (Char.chr ((v0 lsl 2) lor (v1 lsr 4)));
    if c2 <> '=' then begin
      let v2 = b64_decode_char ~at:(!i + 2) c2 in
      Buffer.add_char buf (Char.chr (((v1 land 0xf) lsl 4) lor (v2 lsr 2)));
      if c3 <> '=' then begin
        let v3 = b64_decode_char ~at:(!i + 3) c3 in
        Buffer.add_char buf (Char.chr (((v2 land 0x3) lsl 6) lor v3))
      end
    end;
    i := !i + 4
  done;
  Buffer.contents buf

let b64_encode s =
  let buf = Buffer.create ((String.length s + 2) / 3 * 4) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let b0 = Char.code s.[!i] in
    let b1 = if !i + 1 < n then Char.code s.[!i + 1] else 0 in
    let b2 = if !i + 2 < n then Char.code s.[!i + 2] else 0 in
    Buffer.add_char buf b64_alphabet.[b0 lsr 2];
    Buffer.add_char buf b64_alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
    if !i + 1 < n then
      Buffer.add_char buf b64_alphabet.[((b1 land 0xf) lsl 2) lor (b2 lsr 6)]
    else Buffer.add_char buf '=';
    if !i + 2 < n then Buffer.add_char buf b64_alphabet.[b2 land 0x3f]
    else Buffer.add_char buf '=';
    i := !i + 3
  done;
  Buffer.contents buf

(* --- reading --------------------------------------------------------- *)

let split_attr_line line body =
  match String.index_opt body ':' with
  | None -> err line "expected 'attr: value', got %S" body
  | Some i ->
      let attr = String.sub body 0 i in
      let rest = String.sub body (i + 1) (String.length body - i - 1) in
      if String.length rest > 0 && rest.[0] = ':' then
        (* base64 text itself is whitespace-insensitive; the decoded bytes
           carry any significant whitespace *)
        let raw = String.trim (String.sub rest 1 (String.length rest - 1)) in
        let decoded = try b64_decode raw with Invalid_argument m -> err line "%s" m in
        (attr, decoded)
      else
        (* RFC 2849: exactly one optional space separates ':' from the
           value; anything beyond it — including trailing whitespace — is
           value content (the writer base64-encodes values that need it) *)
        let value =
          if String.length rest > 0 && rest.[0] = ' ' then
            String.sub rest 1 (String.length rest - 1)
          else rest
        in
        (attr, value)

let norm_dn d =
  String.split_on_char ',' d |> List.map (fun p -> String.lowercase_ascii (String.trim p))
  |> String.concat ","

let parent_dn d =
  match String.index_opt d ',' with
  | None -> None
  | Some i -> Some (String.sub d (i + 1) (String.length d - i - 1))

let first_rdn d =
  match String.index_opt d ',' with
  | None -> String.trim d
  | Some i -> String.trim (String.sub d 0 i)

(* The reader is one streaming pass: physical lines are folded into
   logical lines, logical lines are grouped into records, and each
   finished record — its [dn:] line number, the dn, and its remaining
   (attribute, value) pairs in order — goes to [f].  O(record) memory
   over the input, which is what lets a checkpoint load stream a large
   body without materializing line or record lists.  Content records
   ({!fold_entries}) and change records ({!parse_changes}) share it, so
   both get the same folding, comments and base64. *)
let fold_records f init s =
  let len = String.length s in
  let acc = ref init in
  (* record under assembly: dn line number, dn, pairs in reverse *)
  let rec_line = ref 0 in
  let rec_dn = ref None in
  let rec_pairs = ref [] in
  let finish_record () =
    match !rec_dn with
    | None -> ()
    | Some dn ->
        let pairs = List.rev !rec_pairs in
        rec_dn := None;
        rec_pairs := [];
        acc := f ~line:!rec_line ~dn pairs !acc
  in
  let dispatch line body =
    let attr, value = split_attr_line line body in
    match !rec_dn with
    | None ->
        if String.lowercase_ascii (String.trim attr) <> "dn" then
          err line "record must start with 'dn:', got %S" body;
        rec_line := line;
        rec_dn := Some value
    | Some _ -> rec_pairs := (attr, value) :: !rec_pairs
  in
  let pending = ref None in
  let flush_pending () =
    match !pending with
    | None -> ()
    | Some (n, body) ->
        pending := None;
        dispatch n body
  in
  let lineno = ref 0 in
  let handle l =
    let l =
      let n = String.length l in
      if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
    in
    if String.length l > 0 && l.[0] = ' ' then
      (* continuation of the pending logical line (or a dropped comment) *)
      match !pending with
      | Some (n, body) ->
          pending := Some (n, body ^ String.sub l 1 (String.length l - 1))
      | None -> ()
    else begin
      flush_pending ();
      if l = "" then finish_record ()
      else if l.[0] = '#' then ()
      else pending := Some (!lineno, l)
    end
  in
  let rec lines pos =
    incr lineno;
    match if pos >= len then None else String.index_from_opt s pos '\n' with
    | Some j ->
        handle (String.sub s pos (j - pos));
        lines (j + 1)
    | None -> handle (String.sub s pos (len - pos))
  in
  lines 0;
  flush_pending ();
  finish_record ();
  !acc

(* A record's attribute pairs as an entry: [objectClass] lines become the
   class set, every other value is typed through [typing]. *)
let entry_of_record ~typing ~line ~id dn pairs =
  let classes, attr_pairs =
    List.fold_left
      (fun (classes, pairs) (attr_raw, value_raw) ->
        match Attr.of_string_opt attr_raw with
        | None -> err line "invalid attribute name %S" attr_raw
        | Some a ->
            if Attr.equal a Attr.object_class then
              match Oclass.of_string_opt value_raw with
              | Some c -> (Oclass.Set.add c classes, pairs)
              | None -> err line "invalid object class name %S" value_raw
            else
              let ty = Typing.find typing a in
              match Value.parse ty value_raw with
              | Ok v -> (classes, (a, v) :: pairs)
              | Error m -> err line "attribute %s: %s" (Attr.to_string a) m)
      (Oclass.Set.empty, []) pairs
  in
  if Oclass.Set.is_empty classes then err line "entry %s has no objectClass" dn;
  Entry.make ~id ~rdn:(first_rdn dn) ~classes (List.rev attr_pairs)

let fold_entries ?id_of ~typing f init s =
  let by_dn = Hashtbl.create 64 in
  let ordinal = ref 0 in
  let record ~line ~dn pairs acc =
    let id = match id_of with Some f -> f !ordinal | None -> !ordinal in
    incr ordinal;
    let entry = entry_of_record ~typing ~line ~id dn pairs in
    (* normalized per rdn: the parent's key is the child's past its ',' *)
    let key = norm_dn dn in
    let parent =
      match parent_dn key with
      | None -> None
      | Some pk -> (
          match Hashtbl.find_opt by_dn pk with
          | Some pid -> Some pid
          | None ->
              err line "parent entry %S not yet defined"
                (Option.get (parent_dn dn)))
    in
    Hashtbl.replace by_dn key id;
    match f ~parent entry acc with Ok a -> a | Error m -> err line "%s" m
  in
  try Ok (fold_records record init s) with Err e -> Error e

let parse ?(first_id = 0) ~typing s =
  fold_entries
    ~id_of:(fun k -> first_id + k)
    ~typing
    (fun ~parent e inst ->
      Result.map_error Instance.error_to_string (Instance.add ~parent e inst))
    Instance.empty s

let parse_exn ?first_id ~typing s =
  match parse ?first_id ~typing s with
  | Ok inst -> inst
  | Error e -> failwith (error_to_string e)

(* --- writing --------------------------------------------------------- *)

(* RFC 2849 SAFE-STRING: printable ASCII, not starting with space, ':' or
   '<' — and not {e ending} with space either, which the one-separator
   reader could not tell apart from the separator's own padding. *)
let safe_value v =
  v = ""
  || (String.for_all (fun c -> Char.code c >= 0x20 && Char.code c < 0x7f) v
     && v.[0] <> ' ' && v.[0] <> ':' && v.[0] <> '<'
     && v.[String.length v - 1] <> ' ')

let to_string inst =
  let buf = Buffer.create 1024 in
  let emit_pair a v =
    let raw = Value.to_string v in
    if safe_value raw then Buffer.add_string buf (Printf.sprintf "%s: %s\n" a raw)
    else Buffer.add_string buf (Printf.sprintf "%s:: %s\n" a (b64_encode raw))
  in
  Instance.iter_preorder
    (fun ~depth:_ e ->
      let id = Entry.id e in
      Buffer.add_string buf (Printf.sprintf "dn: %s\n" (Instance.dn inst id));
      Oclass.Set.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "objectClass: %s\n" (Oclass.to_string c)))
        (Entry.classes e);
      List.iter (fun (a, v) -> emit_pair (Attr.to_string a) v) (Entry.stored_pairs e);
      Buffer.add_char buf '\n')
    inst;
  Buffer.contents buf

let pp ppf inst = Format.pp_print_string ppf (to_string inst)

(* --- change records --------------------------------------------------- *)

(* Change records resolve their DNs against a rolling instance: [inst]
   with the document's earlier adds folded in (a persistent add, O(log
   |D|) each).  Deletes are not folded in — a later record may still
   name a deleted DN, exactly as the ops would see it before
   [Directory.apply] runs them — and a re-add gets a fresh, larger id,
   so the resolver's largest-id tie-break picks it.  Nothing here is
   proportional to |D|: each DN costs one top-down
   {!Instance.resolve_dn} descent. *)
let parse_changes ~typing inst text =
  let resolve cur line dn =
    match Instance.resolve_dn cur dn with
    | Some id -> id
    | None -> err line "unknown dn %S" dn
  in
  let record ~line ~dn pairs (cur, ops) =
    let changetype, attrs =
      match pairs with
      | (k, v) :: rest
        when String.lowercase_ascii (String.trim k) = "changetype" ->
          (String.lowercase_ascii (String.trim v), rest)
      | _ -> ("add", pairs)
    in
    match changetype with
    | "delete" -> (cur, Update.Delete (resolve cur line dn) :: ops)
    | "add" -> (
        let parent = Option.map (resolve cur line) (parent_dn dn) in
        let entry =
          entry_of_record ~typing ~line ~id:(Instance.fresh_id cur) dn attrs
        in
        match Instance.add ~parent entry cur with
        | Ok cur -> (cur, Update.Insert { parent; entry } :: ops)
        | Error e -> err line "%s" (Instance.error_to_string e))
    | other -> err line "unsupported changetype %S" other
  in
  match fold_records record (inst, []) text with
  | _, ops -> Ok (List.rev ops)
  | exception Err e -> Error (error_to_string e)
