(* Small shared helpers: clock, order statistics, key=value report
   lines and the result JSON. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile p xs =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median xs = percentile 50. xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Samples strictly above the [p]th percentile: a percentile is only
   reported when at least [min_beyond] samples lie beyond it. *)
let beyond p n = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))
let min_beyond = 10

(* Copy the regular files of [src] into a new directory [dst]. *)
let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc data))
    (Sys.readdir src)

let split_lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* "key value" lines of a daemon's [stats] reply. *)
let stats_field text key =
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = key ->
          int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    (split_lines text)

let stats_int text key =
  match stats_field text key with
  | Some v -> v
  | None -> failwith (Printf.sprintf "stats reply lacks %S" key)

(* --- the result line ---------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value)
          unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* Human-readable report lines go to stdout ahead of the JSON line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")
