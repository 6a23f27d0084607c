(* The repository benchmark. One process, one thread:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints diagnostic lines, then as its last line one JSON object with
   the verdict and every end-to-end metric (--trace 0) or every
   per-layer metric (--trace 1). Other modes:

     --write-oracle   regenerate oracle.txt (checksums, cross-checked)
     --write-pins     regenerate pins.txt (input digests, elision modes)
     --selfcheck      determinism self-check of every workload

   Input files are read from --data DIR (default: perfbench). *)

module type WORKLOAD = sig
  val name : string

  val pins : unit -> (string * string) list

  type state

  val setup : dir:string -> state

  val run :
    state ->
    seed:int ->
    seconds:float ->
    trace:bool ->
    between:(unit -> unit) ->
    Outcome.t
end

let workloads : (module WORKLOAD) list =
  [ (module Cold); (module Checked); (module Serving) ]

let find name =
  List.find_opt (fun (module W : WORKLOAD) -> W.name = name) workloads

(* Set-ups before the measured phase; untraced, one more runs after
   every measured batch, so setup_s, their median, samples the machine
   over the whole run as the other wall metrics do. *)
let setups_before = 3

let run_workload (module W : WORKLOAD) ~dir ~seed ~seconds ~trace =
  let times = Clock.col () in
  let setup () = Clock.timed_into times (fun () -> W.setup ~dir) in
  for _ = 2 to setups_before do
    ignore (setup ())
  done;
  let st = setup () in
  let between () = if not trace then ignore (setup ()) in
  let o = W.run st ~seed ~seconds ~trace ~between in
  let setup_s = Clock.median (Clock.values times) in
  let values = if trace then o.values else ("setup_s", setup_s) :: o.values in
  let metrics =
    if trace then
      Metrics.complete ~catalogue:Metrics.per_layer ~zero_missing:true values
    else
      Metrics.complete ~catalogue:Metrics.end_to_end ~zero_missing:false values
  in
  {
    Report.correct = o.correct;
    attempted = o.attempted;
    failed = o.failed;
    metrics;
    diagnostics = o.diagnostics;
  }

(* The self-check runs a shortened version of every workload (its exact
   prefix only) twice with one seed and once with another, each in a
   fresh process as the benchmark's own runs are: every exact metric
   must repeat bit-for-bit under the same seed, and every op must be
   correct under both seeds. *)
let exact_metrics =
  [
    "modeled_cycles_per_op"; "alloc_words_per_op"; "peak_heap_mb"; "ok_frac";
    "modeled_lat_p50_cycles"; "modeled_lat_p99_cycles";
    "modeled_capacity_rps";
  ]

(* The value of [name] in a result line printed by {!Report.json}. *)
let value_of line name =
  let key = Printf.sprintf "%S: {\"value\": " name in
  let rec find i =
    if i + String.length key > String.length line then
      failwith ("selfcheck: no " ^ name ^ " in " ^ line)
    else if String.sub line i (String.length key) = key then
      i + String.length key
    else find (i + 1)
  in
  let i = find 0 in
  let j = String.index_from line i ',' in
  float_of_string (String.sub line i (j - i))

let shortened ~dir name seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
         "--seconds"; "0"; "--trace"; "0"; "--data"; dir |]
  in
  let lines =
    In_channel.input_all ic |> String.trim |> String.split_on_char '\n'
  in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("selfcheck: " ^ name ^ " did not exit cleanly"));
  let last = List.nth lines (List.length lines - 1) in
  let correct = String.starts_with ~prefix:"{\"correct\": true" last in
  (correct, List.map (fun k -> (k, value_of last k)) exact_metrics)

let selfcheck ~dir =
  let ok = ref true in
  List.iter
    (fun (module W : WORKLOAD) ->
      let run seed =
        let correct, values = shortened ~dir W.name seed in
        if not correct then begin
          ok := false;
          Printf.printf "selfcheck %s seed %d: INCORRECT\n" W.name seed
        end;
        values
      in
      let a = run 1 and b = run 1 and c = run 2 in
      List.iter2
        (fun (k, x) (_, y) ->
          let same = Int64.bits_of_float x = Int64.bits_of_float y in
          if not same then ok := false;
          Printf.printf "selfcheck %s %s: %.17g %.17g %s (seed 2: %.17g)\n%!"
            W.name k x y
            (if same then "identical" else "DIFFER")
            (List.assoc k c))
        a b)
    workloads;
  print_endline (if !ok then "selfcheck: ok" else "selfcheck: FAILED");
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and dir = ref "perfbench" and mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--data", Arg.Set_string dir, "DIR where oracle.txt and pins.txt live");
      ("--write-oracle", Arg.Unit (fun () -> mode := `Oracle), " regenerate");
      ("--write-pins", Arg.Unit (fun () -> mode := `Pins), " regenerate");
      ("--selfcheck", Arg.Unit (fun () -> mode := `Selfcheck), " determinism");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Oracle -> Kernels.write_oracle !dir
  | `Pins ->
      Pins.write !dir
        (List.concat_map (fun (module W : WORKLOAD) -> W.pins ()) workloads)
  | `Selfcheck -> selfcheck ~dir:!dir
  | `Run -> (
      match find !workload with
      | None ->
          prerr_endline ("perfbench: unknown workload " ^ !workload);
          exit 2
      | Some w -> (
          match
            run_workload w ~dir:!dir ~seed:!seed ~seconds:!seconds
              ~trace:(!trace = 1)
          with
          | r -> Report.print r
          | exception Pins.Mismatch msg ->
              prerr_endline ("perfbench: pinned inputs changed:\n  " ^ msg);
              exit 2
          | exception Serving.Escape msg ->
              prerr_endline ("perfbench: ESCAPE, run aborted: " ^ msg);
              exit 1))
