(* Pinned input digests. Every generated input (kernel variant sources,
   tenant sources, arrival parameters) and each workload's elision mode
   is recorded in pins.txt; a run checks its own entries before it
   measures anything, so a change to the generators or to the elision
   default fails loudly instead of silently changing what is measured. *)

let file dir = Filename.concat dir "pins.txt"
let digest s = Digest.to_hex (Digest.string s)

let load dir =
  let ic = open_in (file dir) in
  let rec go acc =
    match input_line ic with
    | line when line = "" || line.[0] = '#' -> go acc
    | line -> Scanf.sscanf line "%s %s" (fun k v -> go ((k, v) :: acc))
    | exception End_of_file ->
        close_in ic;
        acc
  in
  go []

exception Mismatch of string

let check dir entries =
  let pinned = load dir in
  let bad =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k pinned with
        | Some v' when v' = v -> None
        | Some v' -> Some (Printf.sprintf "%s: pinned %s, now %s" k v' v)
        | None -> Some (Printf.sprintf "%s: not pinned (now %s)" k v))
      entries
  in
  if bad <> [] then raise (Mismatch (String.concat "\n  " bad))

let write dir entries =
  let oc = open_out (file dir) in
  output_string oc
    "# key value: md5 of every generated input, and each workload's \
     elision mode.\n\
     # Regenerate with: dune exec perfbench/main.exe -- --write-pins\n";
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) entries;
  close_out oc
