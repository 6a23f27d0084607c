(* toolchain_cold: one op takes one PolyBench variant from MiniC source
   through the whole toolchain (parse, elaborate, optimise, sanitize and
   generate code, validate, plan elision, instantiate) and runs it, under
   CAGE with the complete elision plan. No module repeats within a run,
   so no plan or compile cache can make it look better than a real cold
   compile. *)

open Kernels

let name = "toolchain_cold"
let nk = Array.length kernels
let nd = Array.length cold_deltas
let np = Array.length cold_pads

(* Round [r] runs every kernel once, in a fresh order; kernel [k] gets
   size [r mod nd] and slack [r / nd] of its own permutations, so every
   [nd] rounds cover each size exactly once and no (kernel, size, slack)
   repeats before [nd * np] rounds. *)
let max_rounds = nd * np
let exact_rounds = nd

type state = {
  oracle : (string * int, int32) Hashtbl.t;
  sources : string array array array;  (** kernel, size, slack *)
}

let variant_sources (k : Workloads.Polybench.kernel) =
  Array.map
    (fun d ->
      Array.map (fun pad -> source k ~size:(base_size k + d) ~pad) cold_pads)
    cold_deltas

let pins_of sources =
  ("toolchain_cold.elision", elision_mode cold_cfg)
  :: Array.to_list
       (Array.mapi
          (fun i (k : Workloads.Polybench.kernel) ->
            ( "toolchain_cold.kernel." ^ k.k_name,
              Pins.digest
                (String.concat ""
                   (List.concat_map Array.to_list (Array.to_list sources.(i))))
            ))
          kernels)

let pins () = pins_of (Array.map variant_sources kernels)

let setup ~dir =
  let sources = Array.map variant_sources kernels in
  Pins.check dir (pins_of sources);
  { oracle = load_oracle dir; sources }

let run st ~seed ~seconds ~trace ~between =
  let rng = Random.State.make [| seed; 0xC01D |] in
  let size_perm = Array.init nk (fun _ -> Outcome.shuffle rng nd) in
  let pad_perm = Array.init nk (fun _ -> Outcome.shuffle rng np) in
  let order = Array.init max_rounds (fun _ -> Outcome.shuffle rng nk) in
  let variant i =
    let r = i / nk in
    let k = order.(r).(i mod nk) in
    (k, size_perm.(k).(r mod nd), pad_perm.(k).(r / nd))
  in
  let traced i = trace && i / nk mod 2 = 1 in
  let layers = Layers.create () in
  let meter = ref (Wasm.Meter.create ()) in
  let result = ref 0l and failed = ref 0 and exact_failed = ref 0 in
  let op i =
    let k, d, p = variant i in
    meter := Wasm.Meter.create ();
    result :=
      try
        cold
          ?layers:(if traced i then Some layers else None)
          ~meter:!meter st.sources.(k).(d).(p)
      with e ->
        Printf.eprintf "toolchain_cold: %s: %s\n%!" kernels.(k).k_name
          (Printexc.to_string e);
        Int32.min_int
  in
  let exact = nk * exact_rounds in
  let exact_cycles = Array.make exact 0.0 in
  let meters = Meters.create () in
  let peak = ref 0.0 in
  let after i =
    let k, d, _ = variant i in
    let kern = kernels.(k) in
    if !result <> expected st.oracle kern (base_size kern + cold_deltas.(d))
    then begin
      incr failed;
      if i < exact then incr exact_failed
    end;
    if i < exact then
      exact_cycles.(i) <- Cage.Lowering.cycles Meters.core cold_cfg !meter;
    if i = exact - 1 then peak := Clock.peak_heap_mb ();
    if traced i then Meters.add meters cold_cfg !meter
  in
  let ph =
    Clock.measure ~between ~seconds ~after ~round:nk ~exact
      ~min_ops:(Outcome.min_ops ~seconds ~trace ~exact ~rounds:(2 * nk))
      ~max_ops:(nk * max_rounds) op
  in
  let values =
    if not trace then
      Outcome.kernel_e2e ph ~exact_cycles
        ~exact_words:(Array.sub ph.words 0 exact)
        ~peak_heap_mb:!peak ~exact_failed:!exact_failed
    else begin
      let pick f =
        Array.of_list
          (List.filteri (fun i _ -> f (traced i)) (Array.to_list ph.times))
      in
      let t_on = pick Fun.id and t_off = pick not in
      let n = Array.length t_on in
      Outcome.layer_values layers ~traced_ops:n
        ~traced_mean:(Outcome.mean t_on) ~untraced_mean:(Outcome.mean t_off)
        [
          ("analysis.plan_ms", "analysis.plan", `Ms);
          ("analysis.plan_words", "analysis.plan", `Words);
          ("wasm.instantiate_ms", "wasm.instantiate", `Ms);
          ("wasm.instantiate_words", "wasm.instantiate", `Words);
          ("wasm.invoke_ms", "wasm.invoke", `Ms);
        ]
      @ Meters.layer_metrics meters
      @ Outcome.minic_values layers ~n
      @ [
          ( "wasm.ns_per_guest_op",
            1e9 *. Layers.secs layers "wasm.invoke"
            /. float_of_int meters.guest_ops );
          ( "wasm.words_per_guest_op",
            Layers.words layers "wasm.invoke" /. float_of_int meters.guest_ops
          );
        ]
    end
  in
  {
    Outcome.correct = !failed = 0;
    attempted = ph.ops;
    failed = !failed;
    values;
    diagnostics = Report.calibration ph.calib;
  }
