(* exec_checked: the PolyBench kernels at n = 40 are compiled in set-up;
   one op instantiates and runs one of them under CAGE with every check
   kept — the paper's CAGE row. Execution is nearly all of the op. *)

open Kernels

let name = "exec_checked"
let nk = Array.length kernels

(* Exact metrics cover the first two rounds; each round runs every
   kernel once, in a fresh order. *)
let exact_rounds = 2

type state = {
  oracle : (string * int, int32) Hashtbl.t;
  modules : Wasm.Ast.module_ array;
}

let sources () =
  Array.map (fun k -> source k ~size:(exec_size k) ~pad:0) kernels

let pins_of sources =
  ("exec_checked.elision", elision_mode checked_cfg)
  :: Array.to_list
       (Array.mapi
          (fun i (k : Workloads.Polybench.kernel) ->
            ("exec_checked.kernel." ^ k.k_name, Pins.digest sources.(i)))
          kernels)

let pins () = pins_of (sources ())

let setup ~dir =
  let srcs = sources () in
  Pins.check dir (pins_of srcs);
  { oracle = load_oracle dir; modules = Array.map (compile checked_cfg) srcs }

let run st ~seed ~seconds ~trace ~between =
  let rng = Random.State.make [| seed; 0xE8EC |] in
  let orders = Hashtbl.create 64 in
  let kernel i =
    let r = i / nk in
    let order =
      match Hashtbl.find_opt orders r with
      | Some o -> o
      | None ->
          let o = Outcome.shuffle rng nk in
          Hashtbl.replace orders r o;
          o
    in
    order.(i mod nk)
  in
  (* Traced runs rotate untraced CAGE, traced CAGE and traced baseline
     wasm32 rounds; the wasm32 rounds are the reference engine speed. *)
  let mode i = if trace then i / nk mod 3 else 0 in
  let l_setup = Layers.create ()
  and layers = Layers.create ()
  and l32 = Layers.create () in
  let m32 =
    if not trace then [||]
    else begin
      let srcs = sources () in
      Array.iter
        (fun s -> ignore (compile ~layers:l_setup checked_cfg s))
        srcs;
      Array.map (compile Cage.Config.baseline_wasm32) srcs
    end
  in
  let meter = ref (Wasm.Meter.create ()) in
  let result = ref 0l and failed = ref 0 and exact_failed = ref 0 in
  let op i =
    let k = kernel i in
    meter := Wasm.Meter.create ();
    result :=
      try
        match mode i with
        | 0 -> exec ~meter:!meter checked_cfg st.modules.(k)
        | 1 -> exec ~layers ~meter:!meter checked_cfg st.modules.(k)
        | _ ->
            exec ~layers:l32 ~meter:!meter Cage.Config.baseline_wasm32 m32.(k)
      with e ->
        Printf.eprintf "exec_checked: %s: %s\n%!" kernels.(k).k_name
          (Printexc.to_string e);
        Int32.min_int
  in
  let exact = nk * exact_rounds in
  let exact_cycles = Array.make exact 0.0 in
  let meters = Meters.create () and meters32 = Meters.create () in
  let peak = ref 0.0 in
  let after i =
    let kern = kernels.(kernel i) in
    if !result <> expected st.oracle kern (exec_size kern) then begin
      incr failed;
      if i < exact then incr exact_failed
    end;
    if i < exact then
      exact_cycles.(i) <- Cage.Lowering.cycles Meters.core checked_cfg !meter;
    if i = exact - 1 then peak := Clock.peak_heap_mb ();
    match mode i with
    | 1 -> Meters.add meters checked_cfg !meter
    | 2 -> Meters.add meters32 Cage.Config.baseline_wasm32 !meter
    | _ -> ()
  in
  let ph =
    Clock.measure ~between ~seconds ~after ~round:nk ~exact
      ~min_ops:(Outcome.min_ops ~seconds ~trace ~exact ~rounds:(3 * nk))
      op
  in
  let values =
    if not trace then
      Outcome.kernel_e2e ph ~exact_cycles
        ~exact_words:(Array.sub ph.words 0 exact)
        ~peak_heap_mb:!peak ~exact_failed:!exact_failed
    else begin
      let times m =
        Array.of_list
          (List.filteri (fun i _ -> mode i = m) (Array.to_list ph.times))
      in
      let t_on = times 1 in
      let ns l (m : Meters.t) =
        1e9 *. Layers.secs l "wasm.invoke" /. float_of_int m.guest_ops
      and words l (m : Meters.t) =
        Layers.words l "wasm.invoke" /. float_of_int m.guest_ops
      in
      Outcome.layer_values layers ~traced_ops:(Array.length t_on)
        ~traced_mean:(Outcome.mean t_on) ~untraced_mean:(Outcome.mean (times 0))
        [
          ("wasm.instantiate_ms", "wasm.instantiate", `Ms);
          ("wasm.instantiate_words", "wasm.instantiate", `Words);
          ("wasm.invoke_ms", "wasm.invoke", `Ms);
        ]
      @ Meters.layer_metrics meters
      @ Outcome.minic_values l_setup ~n:nk
      @ [
          ("wasm.ns_per_guest_op", ns layers meters);
          ("wasm.words_per_guest_op", words layers meters);
          ("wasm.ns_per_guest_op.wasm32", ns l32 meters32);
          ("wasm.words_per_guest_op.wasm32", words l32 meters32);
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
