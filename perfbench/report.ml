(* What one run prints: a few human-readable diagnostic lines, then as
   the last line one JSON object with the verdict and the metrics. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  diagnostics : (string * float) list;
      (** printed beside the metrics, never part of them *)
}

let m name unit_ value = { name; value; unit_ }

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "metric is not a finite number"

let json r =
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (number x.value) x.unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " metrics)

let print r =
  List.iter
    (fun (k, v) -> Printf.printf "perfbench: %s = %s\n" k (number v))
    r.diagnostics;
  print_endline (json r)

(* Calibration loop times of one run, as diagnostics. *)
let calibration (c : float array) =
  if Array.length c = 0 then []
  else
    [
      ("calibration_ms.median", 1e3 *. Clock.median c);
      ("calibration_ms.min", 1e3 *. Array.fold_left Float.min infinity c);
      ("calibration_ms.max", 1e3 *. Array.fold_left Float.max 0.0 c);
      ("calibration.batches", float_of_int (Array.length c));
    ]
