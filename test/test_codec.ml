(* LDIF reader/writer tests. *)

open Bounds_model

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let typing =
  Typing.default
  |> Typing.declare_exn (Attr.of_string "age") Atype.T_int
  |> Typing.declare_exn (Attr.of_string "active") Atype.T_bool

let sample_ldif =
  {|# a small directory
dn: o=att
objectClass: organization
objectClass: top
o: att

dn: ou=research,o=att
objectClass: orgUnit
objectClass: top
ou: research

dn: uid=laks,ou=research,o=att
objectClass: person
objectClass: top
uid: laks
age: 42
active: TRUE
mail: laks@cs.concordia.ca
mail: laks@cse.iitb.ernet.in
|}

let test_parse_basic () =
  let inst = Bounds_codec.Ldif.parse_exn ~typing sample_ldif in
  check_int "three entries" 3 (Instance.size inst);
  let laks = Option.get (Instance.resolve_dn inst "uid=laks,ou=research,o=att") in
  let e = Instance.entry inst laks in
  check "person" true (Entry.has_class e (Oclass.of_string "person"));
  check "typed int" true
    (Entry.values e (Attr.of_string "age") = [ Value.Int 42 ]);
  check "typed bool" true
    (Entry.values e (Attr.of_string "active") = [ Value.Bool true ]);
  check_int "two mails" 2 (List.length (Entry.values e (Attr.of_string "mail")));
  check "hierarchy" true
    (Instance.parent inst laks = Instance.resolve_dn inst "ou=research,o=att");
  check "root" true
    (Instance.parent inst (Option.get (Instance.resolve_dn inst "o=att")) = None)

let test_parse_continuation () =
  let ldif = "dn: o=att\nobjectClass: top\no: a very\n  long name\n" in
  let inst = Bounds_codec.Ldif.parse_exn ~typing ldif in
  let e = Instance.entry inst 0 in
  check "folded" true
    (Entry.values e (Attr.of_string "o") = [ Value.String "a very long name" ])

let test_parse_base64 () =
  (* "hello world" *)
  let ldif = "dn: o=att\nobjectClass: top\ndescription:: aGVsbG8gd29ybGQ=\n" in
  let inst = Bounds_codec.Ldif.parse_exn ~typing ldif in
  let e = Instance.entry inst 0 in
  check "decoded" true
    (Entry.values e (Attr.of_string "description") = [ Value.String "hello world" ])

let test_parse_errors () =
  let err s =
    match Bounds_codec.Ldif.parse ~typing s with
    | Error _ -> true
    | Ok _ -> false
  in
  check "no dn first" true (err "objectClass: top\n");
  check "orphan parent" true (err "dn: ou=a,o=missing\nobjectClass: top\n");
  check "no objectclass" true (err "dn: o=att\no: att\n");
  check "bad type" true (err "dn: o=att\nobjectClass: top\nage: forty\n");
  check "bad base64" true (err "dn: o=att\nobjectClass: top\nx:: !!!!\n");
  (* error carries a line number *)
  (match Bounds_codec.Ldif.parse ~typing "dn: o=att\nobjectClass: top\nage: forty\n" with
  | Error e -> check_int "line" 1 e.Bounds_codec.Ldif.line
  | Ok _ -> Alcotest.fail "expected error")

let test_roundtrip () =
  let inst = Bounds_codec.Ldif.parse_exn ~typing sample_ldif in
  let inst' = Bounds_codec.Ldif.parse_exn ~typing (Bounds_codec.Ldif.to_string inst) in
  check "equal" true (Instance.equal inst inst')

let test_roundtrip_weird_values () =
  let e =
    Entry.make ~id:0 ~rdn:"o=x"
      ~classes:(Oclass.Set.singleton Oclass.top)
      [
        (Attr.of_string "a", Value.String " leading space");
        (Attr.of_string "b", Value.String "colon: value");
        (Attr.of_string "c", Value.String "uni\xc3\xa9code");
        (Attr.of_string "d", Value.String "");
      ]
  in
  let inst = Instance.add_root_exn e Instance.empty in
  let inst' =
    Bounds_codec.Ldif.parse_exn ~typing:Typing.default
      (Bounds_codec.Ldif.to_string inst)
  in
  check "equal" true (Instance.equal inst inst')

(* LDIF does not carry entry ids (re-parsing numbers entries in document
   order), so round-trips are compared id-agnostically: by the map from
   distinguished name to entry content. *)
let canonical inst =
  Instance.fold
    (fun e acc ->
      let key = String.lowercase_ascii (Instance.dn inst (Entry.id e)) in
      let payload =
        ( List.map Oclass.to_string (Oclass.Set.elements (Entry.classes e)),
          List.sort compare
            (List.map
               (fun (at, v) -> (Attr.to_string at, Value.to_string v))
               (Entry.stored_pairs e)) )
      in
      (key, payload) :: acc)
    inst []
  |> List.sort compare

let test_roundtrip_white_pages () =
  let wp = Bounds_workload.White_pages.instance in
  let out = Bounds_codec.Ldif.to_string wp in
  let back =
    Bounds_codec.Ldif.parse_exn ~typing:Bounds_workload.White_pages.schema.typing out
  in
  check "equal modulo ids" true (canonical wp = canonical back);
  let laks =
    Option.get (Instance.resolve_dn back "uid=laks,ou=databases,ou=attLabs,o=att")
  in
  check_str "dn preserved" "uid=laks,ou=databases,ou=attLabs,o=att"
    (Instance.dn back laks)

let test_roundtrip_generated () =
  let inst = Bounds_workload.White_pages.generate ~units:20 ~persons_per_unit:5 () in
  let back =
    Bounds_codec.Ldif.parse_exn
      ~typing:Bounds_workload.White_pages.schema.typing
      (Bounds_codec.Ldif.to_string inst)
  in
  check "equal modulo ids" true (canonical inst = canonical back)

(* Property: random content-legal instances round-trip through LDIF
   (compared id-agnostically, since LDIF does not carry entry ids). *)
let prop_ldif_roundtrip =
  QCheck.Test.make ~name:"ldif roundtrip on random instances" ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let schema = Bounds_workload.White_pages.schema in
      let inst =
        Bounds_workload.Gen.content_legal_forest ~seed ~size:(1 + (seed mod 40))
          schema
      in
      let back =
        Bounds_codec.Ldif.parse_exn
          ~typing:schema.Bounds_core.Schema.typing
          (Bounds_codec.Ldif.to_string inst)
      in
      canonical inst = canonical back)

(* Property: instances whose values are assembled from codec edge-case
   fragments (leading/trailing blanks, CRLF, base64-alphabet text, NUL,
   high bytes) survive the LDIF round-trip byte-for-byte. *)
let prop_ldif_adversarial =
  QCheck.Test.make ~name:"ldif roundtrip on adversarial values" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let inst =
        Bounds_workload.Gen.adversarial_forest ~seed ~size:(1 + (seed mod 10)) ()
      in
      let back =
        Bounds_codec.Ldif.parse_exn ~typing:Typing.default
          (Bounds_codec.Ldif.to_string inst)
      in
      canonical inst = canonical back)

(* --- change records ----------------------------------------------------- *)

let parse_changes = Bounds_codec.Ldif.parse_changes

let changes inst text =
  match parse_changes ~typing inst text with
  | Ok ops -> ops
  | Error m -> Alcotest.failf "parse_changes: %s" m

(* Replay Insert ops (the only kind a content document yields) onto an
   instance. *)
let replay_inserts inst ops =
  List.fold_left
    (fun inst op ->
      match op with
      | Update.Insert { parent; entry } -> (
          match Instance.add ~parent entry inst with
          | Ok i -> i
          | Error e -> Alcotest.fail (Instance.error_to_string e))
      | Update.Delete _ -> Alcotest.fail "unexpected delete")
    inst ops

let test_changes_resolution () =
  let inst = Bounds_codec.Ldif.parse_exn ~typing sample_ldif in
  let laks = Option.get (Instance.resolve_dn inst "uid=laks,ou=research,o=att") in
  let research = Option.get (Instance.resolve_dn inst "ou=research,o=att") in
  let fresh = Instance.fresh_id inst in
  (* an add may parent a later add; DNs match case- and blank-insensitively *)
  (match
     changes inst
       "dn: ou=lab, OU=Research , o=ATT\nobjectClass: top\n\n\
        dn: cn=x,ou=LAB,ou=research,o=att\nchangetype: add\nobjectClass: top\n\n\
        dn: uid=laks,ou=research,o=att\nchangetype: delete\n"
   with
  | [ Update.Insert { parent = p1; entry = e1 };
      Update.Insert { parent = p2; entry = e2 };
      Update.Delete d ] ->
      check "first add under research" true (p1 = Some research);
      check_int "fresh id" fresh (Entry.id e1);
      check_str "rdn trimmed" "ou=lab" (Entry.rdn e1);
      check "second add under the first" true (p2 = Some fresh);
      check_int "next fresh id" (fresh + 1) (Entry.id e2);
      check_int "delete resolves" laks d
  | _ -> Alcotest.fail "wanted insert, insert, delete");
  (* delete-then-re-add: later records see the re-added (larger) id *)
  (match
     changes inst
       "dn: uid=laks,ou=research,o=att\nchangetype: delete\n\n\
        dn: uid=laks,ou=research,o=att\nobjectClass: top\n\n\
        dn: uid=laks,ou=research,o=att\nchangetype: delete\n"
   with
  | [ Update.Delete a; Update.Insert { entry; _ }; Update.Delete b ] ->
      check_int "first delete hits the stored entry" laks a;
      check_int "second delete hits the re-add" (Entry.id entry) b
  | _ -> Alcotest.fail "wanted delete, insert, delete");
  let rejects what text =
    check what true (Result.is_error (parse_changes ~typing inst text))
  in
  rejects "unknown dn" "dn: uid=nobody,o=att\nchangetype: delete\n";
  rejects "unknown parent" "dn: uid=x,ou=nowhere,o=att\nobjectClass: top\n";
  rejects "changetype without ':'" "dn: o=att\nchangetype\n";
  rejects "unsupported changetype" "dn: o=att\nchangetype: modify\n";
  rejects "no objectClass" "dn: cn=y,o=att\nname: y\n";
  rejects "bad base64" "dn: cn=y,o=att\nobjectClass: top\nname:: !!!!\n";
  (* errors carry the record's line *)
  match parse_changes ~typing inst "\n\ndn: uid=nobody,o=att\nchangetype: delete\n" with
  | Error m -> check_str "positioned" "line 3: unknown dn \"uid=nobody,o=att\"" m
  | Ok _ -> Alcotest.fail "expected error"

(* Change records read lines exactly as content records do: base64
   values decode, folded lines unfold, trailing blanks are content. *)
let test_changes_line_handling () =
  let name ops =
    match ops with
    | [ Update.Insert { entry; _ } ] -> Entry.values entry (Attr.of_string "name")
    | _ -> Alcotest.fail "wanted one insert"
  in
  let doc body = "dn: o=x\nobjectClass: top\n" ^ body ^ "\n" in
  check "base64 decoded" true
    (name (changes Instance.empty (doc "name:: IHRyYWlsaW5nIA=="))
    = [ Value.String " trailing " ]);
  check "folded line" true
    (name (changes Instance.empty (doc "name: a very\n  long name"))
    = [ Value.String "a very long name" ]);
  check "trailing blank kept" true
    (name (changes Instance.empty (doc "name: x ")) = [ Value.String "x " ])

(* [to_string] output, fed back as change records against an empty
   instance, rebuilds the same entries — including the values the writer
   base64-encodes. *)
let test_changes_roundtrip () =
  let top = Oclass.Set.singleton Oclass.top in
  let root =
    Entry.make ~id:0 ~rdn:"o=x" ~classes:top
      [
        (Attr.of_string "a", Value.String " leading space");
        (Attr.of_string "b", Value.String "trailing space ");
        (Attr.of_string "c", Value.String "uni\xc3\xa9code");
        (Attr.of_string "d", Value.String ":colon first");
      ]
  in
  let child =
    Entry.make ~id:1 ~rdn:"cn=y" ~classes:top
      [ (Attr.of_string "e", Value.String "\xe2\x82\xac end ") ]
  in
  let inst =
    Instance.add_root_exn root Instance.empty |> Instance.add_child_exn ~parent:0 child
  in
  let back =
    replay_inserts Instance.empty
      (changes Instance.empty (Bounds_codec.Ldif.to_string inst))
  in
  check "equal" true (Instance.equal inst back)

let prop_changes_roundtrip =
  QCheck.Test.make ~name:"change records round-trip adversarial values" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let inst =
        Bounds_workload.Gen.adversarial_forest ~seed ~size:(1 + (seed mod 10)) ()
      in
      match
        parse_changes ~typing:Typing.default Instance.empty
          (Bounds_codec.Ldif.to_string inst)
      with
      | Error m -> QCheck.Test.fail_report m
      | Ok ops -> canonical inst = canonical (replay_inserts Instance.empty ops))

(* Totality: no input makes the change parser raise — a malformed
   request must come back as [Error], never as an exception that aborts
   the group commit it was coalesced into. *)
let ldif_fragments =
  [| "dn:"; "dn: "; "dn: o=att"; "dn: ou=research,o=att"; "changetype";
     "changetype:"; "changetype: add"; "changetype: delete"; "changetype: x";
     "objectClass: top"; "objectClass:"; "::"; "name:: "; "IHRy"; "=="; "age: 4";
     "age: x"; "uid=laks"; ","; ":"; " "; "\t"; "#"; "\xc3\xa9"; "\000" |]

let prop_changes_total =
  let line =
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 1 3)
           (oneof [ oneofa ldif_fragments; string_size ~gen:char (int_bound 4) ])))
  in
  QCheck.Test.make ~name:"parse_changes never raises" ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          map
            (List.fold_left (fun acc (l, sep) -> acc ^ l ^ sep) "")
            (list_size (int_bound 8)
               (pair line (oneofl [ "\n"; "\n"; "\n\n"; "\r\n"; "\n " ])))))
    (fun text ->
      let inst = Bounds_codec.Ldif.parse_exn ~typing sample_ldif in
      match parse_changes ~typing inst text with Ok _ | Error _ -> true)

(* --- base64 vectors --------------------------------------------------- *)

let b64_decode = Bounds_codec.Ldif.b64_decode
let b64_encode = Bounds_codec.Ldif.b64_encode

let test_b64_vectors () =
  (* RFC 4648 §10 test vectors, both directions *)
  List.iter
    (fun (plain, coded) ->
      check_str ("encode " ^ plain) coded (b64_encode plain);
      check_str ("decode " ^ coded) plain (b64_decode coded))
    [
      ("", "");
      ("f", "Zg==");
      ("fo", "Zm8=");
      ("foo", "Zm9v");
      ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE=");
      ("foobar", "Zm9vYmFy");
      ("\x00\xff ", "AP8g");
    ]

let test_b64_rejects_malformed () =
  let rejects label s =
    check label true
      (match b64_decode s with
      | (_ : string) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "bad length" "Zm9vY";
  rejects "non-alphabet byte" "Zm9%";
  rejects "embedded newline" "Zm\n9v";
  (* '=' padding is only legal in the final one or two positions *)
  rejects "padding mid-string" "Zg==Zg==";
  rejects "padding then data" "Zm=v";
  rejects "lone final padding misplaced" "Z==v";
  (* positioned error message *)
  check "error names the offset" true
    (match b64_decode "Zg==Zg==" with
    | (_ : string) -> false
    | exception Invalid_argument m ->
        (* the stray '=' is at offset 2 *)
        m = "stray base64 padding '=' at offset 2")

let prop_b64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip on random bytes" ~count:300
    QCheck.(string_of_size Gen.(int_bound 48))
    (fun s -> b64_decode (b64_encode s) = s)

let () =
  Alcotest.run "codec"
    [
      ( "ldif",
        [
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "continuation lines" `Quick test_parse_continuation;
          Alcotest.test_case "base64" `Quick test_parse_base64;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip weird values" `Quick
            test_roundtrip_weird_values;
          Alcotest.test_case "roundtrip white pages" `Quick test_roundtrip_white_pages;
          Alcotest.test_case "roundtrip generated" `Quick test_roundtrip_generated;
          QCheck_alcotest.to_alcotest prop_ldif_roundtrip;
          QCheck_alcotest.to_alcotest prop_ldif_adversarial;
        ] );
      ( "changes",
        [
          Alcotest.test_case "resolution" `Quick test_changes_resolution;
          Alcotest.test_case "line handling" `Quick test_changes_line_handling;
          Alcotest.test_case "roundtrip" `Quick test_changes_roundtrip;
          QCheck_alcotest.to_alcotest prop_changes_roundtrip;
          QCheck_alcotest.to_alcotest prop_changes_total;
        ] );
      ( "base64",
        [
          Alcotest.test_case "rfc 4648 vectors" `Quick test_b64_vectors;
          Alcotest.test_case "rejects malformed" `Quick test_b64_rejects_malformed;
          QCheck_alcotest.to_alcotest prop_b64_roundtrip;
        ] );
    ]
