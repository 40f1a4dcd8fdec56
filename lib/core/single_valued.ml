open Bounds_model

let check_entry (schema : Schema.t) e =
  Attr.Set.fold
    (fun attr acc ->
      let count = List.length (Entry.values e attr) in
      if count > 1 then
        Violation.Multiple_values { entry = Entry.id e; attr; count } :: acc
      else acc)
    schema.single_valued []
  |> List.rev

(* Per-entry test, merged in traversal order. *)
let check schema inst =
  Instance.fold (fun e acc -> List.rev_append (check_entry schema e) acc) inst []
  |> List.rev
