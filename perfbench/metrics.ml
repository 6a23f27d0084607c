(* The metric catalogue: every run reports every end-to-end metric
   (untraced) or every per-layer metric (traced), by these names and
   units, in this order. BENCHMARK.json lists the same names. A layer
   that a workload never calls reports 0. *)

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms");
    ("op_p99_ms", "ms"); ("modeled_cycles_per_op", "cycles");
    ("alloc_words_per_op", "words"); ("peak_heap_mb", "MiB");
    ("ok_frac", "frac"); ("modeled_lat_p50_cycles", "cycles");
    ("modeled_lat_p99_cycles", "cycles"); ("modeled_capacity_rps", "1/s");
  ]

let per_layer =
  [
    ("minic.parse_ms", "ms"); ("minic.elab_ms", "ms"); ("minic.opt_ms", "ms");
    ("minic.codegen_ms", "ms"); ("minic.words", "words");
    ("minic.wasm_instrs", "count"); ("wasm.validate_ms", "ms");
    ("analysis.plan_ms", "ms"); ("analysis.plan_words", "words");
    ("analysis.tag_elided_frac", "frac");
    ("analysis.bounds_elided_frac", "frac");
    ("analysis.tag_writes_elided_frac", "frac");
    ("wasm.instantiate_ms", "ms"); ("wasm.instantiate_words", "words");
    ("wasm.invoke_ms", "ms"); ("wasm.ns_per_guest_op", "ns");
    ("wasm.words_per_guest_op", "words"); ("wasm.guest_ops", "count");
    ("wasm.checked_accesses", "count");
    ("wasm.ns_per_guest_op.wasm32", "ns");
    ("wasm.words_per_guest_op.wasm32", "words");
    ("cage.mte_insn_frac", "frac"); ("serve.restore_us", "us");
    ("serve.restore_bytes", "bytes"); ("serve.exec_us", "us");
    ("serve.crash_us", "us"); ("serve.runtime_us", "us");
    ("serve.words_per_req", "words"); ("serve.modeled_queue_frac", "frac");
    ("serve.modeled_restore_frac", "frac"); ("serve.modeled_exec_frac", "frac");
    ("serve.modeled_retry_frac", "frac"); ("serve.retries", "per_1k_req");
    ("serve.crashes", "per_1k_req"); ("serve.sheds", "per_1k_req");
    ("serve.breaker_trips", "per_1k_req"); ("serve.heals", "per_1k_req");
    ("serve.injections", "per_1k_req"); ("obs.trace_overhead_frac", "frac");
    ("layers_unattributed_frac", "frac");
  ]

(* Put a workload's values in catalogue order with catalogue units. A
   name outside the catalogue is a bug in the benchmark; a missing
   end-to-end metric too. *)
let complete ~catalogue ~zero_missing (values : (string * float) list) =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k catalogue) then
        failwith ("metric outside the catalogue: " ^ k))
    values;
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> Report.m name unit_ v
      | None when zero_missing -> Report.m name unit_ 0.0
      | None -> failwith ("metric not measured: " ^ name))
    catalogue
