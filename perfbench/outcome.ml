(* What a workload hands back to main, and the pieces the kernel
   workloads share. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  diagnostics : (string * float) list;
}

let freq_hz = Meters.core.Arch.Cpu_model.freq_ghz *. 1e9
let mean xs = Clock.sum xs /. float_of_int (Array.length xs)

(* Ops a measured phase runs at least: untraced, the exact prefix and
   enough ops for 10 samples beyond the p99; traced, one cycle of
   [rounds] ops over every mode. A zero-second run (the self-check)
   stops after the exact prefix. *)
let min_ops ~seconds ~trace ~exact ~rounds =
  if seconds <= 0.0 then exact
  else if trace then rounds
  else max exact (100 * Clock.p99_tail)

(* Fisher-Yates over [0 .. n-1]. *)
let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* End-to-end metrics of a kernel workload. Wall metrics come from every
   op of the measured phase; exact ones from the first ops, whose
   per-op modeled cycles, minor words and failures are given. A kernel op is one
   request to a single core that runs it to completion, so its modeled
   latency is its modeled cycles and the core's capacity is the clock
   over their mean. *)
let kernel_e2e (ph : Clock.phase) ~exact_cycles ~exact_words ~peak_heap_mb
    ~exact_failed =
  let cycles = mean exact_cycles in
  let exact = float_of_int (Array.length exact_cycles) in
  [
    ("ops_per_s", float_of_int ph.ops /. ph.busy);
    ("op_p50_ms", 1e3 *. Clock.median ph.times);
    ("op_p99_ms", 1e3 *. Clock.percentile 99.0 ph.times);
    ("modeled_cycles_per_op", cycles);
    ("alloc_words_per_op", mean exact_words);
    ("peak_heap_mb", peak_heap_mb);
    ("ok_frac", 1.0 -. (float_of_int exact_failed /. exact));
    ("modeled_lat_p50_cycles", Clock.median exact_cycles);
    ("modeled_lat_p99_cycles", Clock.percentile 99.0 exact_cycles);
    ("modeled_capacity_rps", freq_hz /. cycles);
  ]

(* Per-op layer times and words of a traced run, and the two checks on
   the trace itself: how much the probes cost, and how much of the
   untraced op no layer accounts for. *)
let layer_values (l : Layers.t) ~traced_ops ~traced_mean ~untraced_mean names
    =
  let per x = x /. float_of_int traced_ops in
  List.map
    (fun (metric, layer, what) ->
      ( metric,
        match what with
        | `Ms -> 1e3 *. per (Layers.secs l layer)
        | `Words -> per (Layers.words l layer) ))
    names
  @ [
      ("obs.trace_overhead_frac", traced_mean /. untraced_mean);
      ( "layers_unattributed_frac",
        (untraced_mean -. per (Layers.total_secs l)) /. untraced_mean );
    ]

(* The front-end layers over [n] compiled modules. *)
let minic_values l ~n =
  let per x = x /. float_of_int n in
  let ms layer = 1e3 *. per (Layers.secs l layer) in
  let front = [ "minic.parse"; "minic.elab"; "minic.opt"; "minic.codegen" ] in
  [
    ("minic.parse_ms", ms "minic.parse");
    ("minic.elab_ms", ms "minic.elab");
    ("minic.opt_ms", ms "minic.opt");
    ("minic.codegen_ms", ms "minic.codegen");
    ( "minic.words",
      per (List.fold_left (fun s x -> s +. Layers.words l x) 0.0 front) );
    ( "minic.wasm_instrs",
      per (float_of_int (Layers.counted l "minic.wasm_instrs")) );
    ("wasm.validate_ms", ms "wasm.validate");
  ]
