(* serve_chaos: short multi-tenant requests through [Serve.Server.run]
   with the chaos policy on, beside a tenant whose every request is a
   heap overflow. Arrivals are open-loop on the modeled clock at one
   stated rate; the host side is closed-loop, one batch at a time. An op
   is one request. *)

let name = "serve_chaos"
let cfg = Kernels.checked_cfg

(* The tenant cast: two Fuzzgen programs carry the traffic, so
   restore, containment, scheduling and policy work outweigh guest
   execution; the malicious tenant faults on every request. *)
let fuzz_tenants = [ ("fuzz_a", 0xF5EED, 6); ("fuzz_b", 0xF5EEE, 2) ]

let cast () =
  List.map
    (fun (n, s, w) ->
      let p = Workloads.Fuzzgen.generate ~seed:s in
      (n, w, Workloads.Fuzzgen.render p, Workloads.Fuzzgen.reference p))
    fuzz_tenants
  @ [ ("malicious", 1, Harness.Serve_bench.malicious_source, 0l) ]

(* The stated modeled rate: one arrival every [gap] cycles on average
   over 4 simulated cores; [batch] requests per [Server.run], each batch
   under a fresh chaos engine. *)
let gap = 8_000
let batch = 200

(* The chaos policy spends at most [max_injections] per slot lane and
   batch, so a well-behaved tenant crashes at most slots * budget times
   in a row. The breaker trips one crash later: only the malicious
   tenant can trip it, and no well-behaved request is ever shed by it. *)
let policy =
  let slots = Serve.Server.default_config.slots in
  let budget = (Harness.Serve_bench.chaos_policy ~seed:0).max_injections in
  {
    Serve.Policy.default with
    breaker =
      { Serve.Policy.default.breaker with trip_after = (slots * budget) + 1 };
  }

let server_config ~seed ~gap ~requests =
  {
    Serve.Server.default_config with
    Serve.Server.requests;
    seed;
    arrival_gap = gap;
    policy;
  }

let arrivals =
  Printf.sprintf "gap=%d batch=%d cores=%d slots=%d trip_after=%d" gap batch
    Serve.Server.default_config.cores Serve.Server.default_config.slots
    policy.breaker.trip_after

(* Batch [b] of the run seeded [seed]. *)
let batch_seed ~seed b = (seed * 100_003) + b

(* Exact metrics cover the first [exact_batches] batches. *)
let exact_batches = 100

(* The capacity ladder: modeled arrival gaps, one octave apart, slowest
   rate first, each tried on [ladder_batches] batches. *)
let ladder = [ 32_000; 16_000; 8_000; 4_000; 2_000; 1_000 ]
let ladder_batches = 10

type state = { tenants : Serve.Pool.tenant list }

let pins () =
  ("serve_chaos.elision", Kernels.elision_mode cfg)
  :: ("serve_chaos.arrivals", Pins.digest arrivals)
  :: List.map
       (fun (n, w, src, _) ->
         ( "serve_chaos.tenant." ^ n,
           Pins.digest (Printf.sprintf "%d:%s" w src) ))
       (cast ())

let check_malicious m =
  let proc = Cage.Process.create ~config:cfg ~seed:0 () in
  let sup = Cage.Supervisor.create ~fuel:2_000_000 proc in
  let imports, _ = Harness.Serve_bench.wasi_imports () in
  let inst = Cage.Supervisor.spawn ~imports sup m in
  match Cage.Supervisor.run sup inst "main" [] with
  | Cage.Supervisor.Crashed pm
    when String.starts_with ~prefix:"tag fault:" pm.Cage.Supervisor.pm_message
    ->
      ()
  | _ ->
      failwith "serve_chaos: the malicious tenant is not stopped by a tag fault"

(* Compile the cast and check every well-behaved tenant's chaos-free
   reference against the Fuzzgen evaluator's, and that the malicious
   tenant is stopped by a tag fault. *)
let setup ~dir =
  Pins.check dir (pins ());
  {
    tenants =
      List.mapi
        (fun i (n, weight, src, reference) ->
          let malicious = n = "malicious" in
          let tn =
            Harness.Serve_bench.tenant_of_source cfg ~name:n ~weight ~seed:i
              ~expect:(not malicious) src
          in
          if malicious then begin
            check_malicious tn.tn_module;
            tn
          end
          else if tn.tn_expected <> Some [ Wasm.Values.I32 reference ] then
            failwith ("serve_chaos: wrong chaos-free reference for " ^ n)
          else tn)
        (cast ());
  }

exception Escape of string

let good (tr : Serve.Server.tenant_report) = tr.tr_name <> "malicious"

(* [Server.run] can spin forever: when a slice completes a job,
   [complete] does not dispatch the jobs still waiting for a core, so a
   job left waiting after the last arrival of a run never runs, and the
   heal timer keeps the event loop alive. A batch still running after
   [stuck_after] wall seconds (a batch normally takes about 25 ms) is
   abandoned: the requests it had not finished are counted apart from
   the failed ones, as this known defect's diagnostic. *)
let stuck_after = 1.0

exception Stuck

let armed = ref false

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> if !armed then raise Stuck))

let alarm secs =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.0; it_value = secs })

let serve st ~seed ~gap ~requests =
  let collect = Serve.Slo.collector () in
  armed := true;
  alarm stuck_after;
  let report =
    match
      Serve.Server.run
        ~chaos:(Harness.Serve_bench.chaos_policy ~seed)
        ~collect
        (server_config ~seed ~gap ~requests)
        st.tenants
    with
    | r ->
        armed := false;
        Some r
    | exception Stuck -> None
  in
  armed := false;
  alarm 0.0;
  (report, collect)

(* The outcome of one batch of [requests]. Failed: a well-behaved
   request that was shed, timed out or trapped with no chaos injection
   to blame. An escape aborts the run: a wrong result reaching a
   well-behaved tenant's client, or a malicious request that finished
   with no injection to blame (its overflow was not stopped by a tag
   fault). Two outcomes are contained, counted apart and not failed: a
   well-behaved request lost only to injected faults ([lost]), and a
   malicious request that finished because an injected fault (a flipped
   tag, say) hid its overflow ([unstopped]). The requests an abandoned
   batch had not finished are [abandoned]. *)
type outcome = { failed : int; lost : int; unstopped : int; abandoned : int }

let outcome ~requests (report : Serve.Server.report option) co =
  (match report with
  | Some r ->
      if r.rp_escaped > 0 then
        raise
          (Escape
             (Printf.sprintf "%d corrupted results reached a client"
                r.rp_escaped));
      if r.rp_ok + r.rp_failed + r.rp_shed <> r.rp_requests then
        failwith "serve_chaos: request accounting does not add up"
  | None -> ());
  let recs = Serve.Slo.records co in
  List.fold_left
    (fun o (q : Serve.Slo.req_rec) ->
      let injected = q.rr_injections > 0 in
      if q.rr_tenant = "malicious" then
        if not q.rr_ok then o
        else if injected then { o with unstopped = o.unstopped + 1 }
        else raise (Escape "a malicious request finished without a tag fault")
      else if q.rr_ok then o
      else if injected then { o with lost = o.lost + 1 }
      else { o with failed = o.failed + 1 })
    {
      failed = 0;
      lost = 0;
      unstopped = 0;
      abandoned = requests - List.length recs;
    }
    recs

let ok_latencies co =
  List.filter_map
    (fun (r : Serve.Slo.req_rec) ->
      if r.rr_ok then Some (float_of_int r.rr_latency) else None)
    (Serve.Slo.records co)

(* Highest ladder rate at which the default objective holds, tried
   until the first rate that misses: at least [ob_latency_quantile] of
   ok requests within [ob_latency] (a request that never finished
   misses it), and no well-behaved request shed (a growing backlog fills
   the admission queues and sheds). *)
let capacity st ~seed =
  let ob = Serve.Slo.default_objective in
  let meets g =
    let lat = ref [] and sheds = ref 0 in
    for b = 0 to ladder_batches - 1 do
      let r, co =
        serve st ~seed:(batch_seed ~seed (g + b)) ~gap:g ~requests:batch
      in
      lat := List.rev_append (ok_latencies co) !lat;
      match r with
      | None ->
          let unfinished = batch - List.length (Serve.Slo.records co) in
          lat := List.rev_append (List.init unfinished (fun _ -> infinity)) !lat
      | Some r ->
          List.iter
            (fun (tr : Serve.Server.tenant_report) ->
              if good tr then sheds := !sheds + tr.tr_shed)
            r.rp_tenants
    done;
    !sheds = 0
    && !lat <> []
    && Clock.percentile (100.0 *. ob.ob_latency_quantile) (Array.of_list !lat)
       <= float_of_int ob.ob_latency
  in
  let rec climb best = function
    | g :: rest when meets g ->
        climb (Outcome.freq_hz /. (float_of_int g +. 0.5)) rest
    | _ -> best
  in
  climb 0.0 ladder

type phases = {
  mutable queue : float;
  mutable restore : float;
  mutable exec : float;
  mutable retry : float;
  mutable latency : float;
}

let add_phases p co =
  List.iter
    (fun (r : Serve.Slo.req_rec) ->
      if r.rr_ok then begin
        p.queue <- p.queue +. float_of_int r.rr_queue;
        p.restore <- p.restore +. float_of_int r.rr_restore;
        p.exec <- p.exec +. float_of_int r.rr_exec;
        p.retry <- p.retry +. float_of_int r.rr_retry;
        p.latency <- p.latency +. float_of_int r.rr_latency
      end)
    (Serve.Slo.records co)

(* Wall metrics cover the batches that finished; exact ones the first
   [exact_batches], where metered service cycles are the SLO
   collector's exec phases (which reconcile with the pool meters) so an
   abandoned batch still contributes the requests it finished. The
   capacity ladder runs first, so what ran before it, and with it every
   instance id that seeds a tag generator, is the same in every run. *)
let run_e2e st ~seed ~seconds ~between =
  let capacity_rps = capacity st ~seed in
  let lat = ref [] and failed = ref 0 and exact_failed = ref 0 in
  let lost = ref 0 and unstopped = ref 0 and abandoned = ref 0 in
  let served = ref 0 and stuck = ref [] and peak = ref 0.0 in
  let last = ref (None, Serve.Slo.collector ()) in
  let op b = last := serve st ~seed:(batch_seed ~seed b) ~gap ~requests:batch in
  let after b =
    let r, co = !last in
    let o = outcome ~requests:batch r co in
    failed := !failed + o.failed;
    lost := !lost + o.lost;
    unstopped := !unstopped + o.unstopped;
    abandoned := !abandoned + o.abandoned;
    if r = None then stuck := b :: !stuck;
    if b < exact_batches then begin
      exact_failed := !exact_failed + o.failed;
      served := !served + Serve.Slo.exec_cycles co;
      lat := List.rev_append (ok_latencies co) !lat
    end;
    if b = exact_batches - 1 then peak := Clock.peak_heap_mb ()
  in
  let min_ops =
    Outcome.min_ops ~seconds ~trace:false ~exact:exact_batches ~rounds:0
  in
  let ph =
    Clock.measure ~between ~seconds ~after ~min_ops ~exact:exact_batches op
  in
  let finished ?(upto = max_int) a =
    List.filteri (fun b _ -> b < upto && not (List.mem b !stuck))
      (Array.to_list a)
  in
  let times = Array.of_list (finished ph.times) in
  let exact_words = finished ~upto:exact_batches ph.words in
  let requests = ph.ops * batch in
  let exact_reqs = float_of_int (exact_batches * batch) in
  let lat = Array.of_list !lat in
  let per_req = Array.map (fun t -> t /. float_of_int batch) times in
  {
    Outcome.correct = !failed = 0;
    attempted = requests;
    failed = !failed;
    values =
      [
        ( "ops_per_s",
          float_of_int (Array.length times * batch) /. Clock.sum times );
        ("op_p50_ms", 1e3 *. Clock.median per_req);
        ("op_p99_ms", 1e3 *. Clock.percentile 99.0 per_req);
        ("modeled_cycles_per_op", float_of_int !served /. exact_reqs);
        ( "alloc_words_per_op",
          List.fold_left ( +. ) 0.0 exact_words
          /. float_of_int (List.length exact_words * batch) );
        ("peak_heap_mb", !peak);
        ("ok_frac", 1.0 -. (float_of_int !exact_failed /. exact_reqs));
        ("modeled_lat_p50_cycles", Clock.median lat);
        ("modeled_lat_p99_cycles", Clock.percentile 99.0 lat);
        ("modeled_capacity_rps", capacity_rps);
      ];
    diagnostics =
      ("serve.lost_to_chaos_frac", float_of_int !lost /. float_of_int requests)
      :: ( "serve.malicious_unstopped_under_chaos_frac",
           float_of_int !unstopped /. float_of_int requests )
      :: ("serve.stuck_batches", float_of_int (List.length !stuck))
      :: ("serve.abandoned_requests", float_of_int !abandoned)
      :: Report.calibration ph.calib;
  }

(* ------------------------------------------------------------------ *)
(* The traced run: a pool-driven replay of each batch's requests       *)
(* ------------------------------------------------------------------ *)

(* The attempts one batch ran, in [Server.run]'s order, read from a
   span recording of the batch: the tenant of every attempt that ran,
   one "restore" slice each, and per tenant the attempts that did not
   run (shed by the breaker or a full queue, or expired while queued).
   Every retry [Policy.retryable] allowed is there, and no attempt the
   breaker shed. The recording is a second run of the batch, not the
   timed one: each instance seeds its tag generator from a process-wide
   instance count, so about one batch in fifty runs a few hundred
   modeled cycles apart from the timed run. *)
let attempts st ~seed =
  let rc = Obs.Span.create () in
  let r, _ =
    Obs.Span.with_recorder rc (fun () -> serve st ~seed ~gap ~requests:batch)
  in
  if Obs.Span.dropped rc > 0 then
    failwith "serve_chaos: the span recording of a batch overflowed";
  let skipped = Array.make (List.length st.tenants) 0 in
  let tenant (x : Obs.Span.record) = x.r_tid - Obs.Span.tenant_tid 0 in
  let ran =
    List.filter_map
      (fun (x : Obs.Span.record) ->
        match (x.r_name, x.r_kind) with
        | "restore", Obs.Span.Complete _ -> Some (tenant x)
        | ("shed-queue" | "shed-breaker" | "timeout-queued"), Obs.Span.Instant
          ->
            skipped.(tenant x) <- skipped.(tenant x) + 1;
            None
        | _ -> None)
      (Obs.Span.records rc)
  in
  (r, Array.of_list ran, skipped)

type replay = {
  layers : Layers.t option;
  mutable runs : int;
  mutable restored_bytes : int;
  mutable guest_ops : int;
  mutable slots : int;
}

let replay_acc layers =
  { layers; runs = 0; restored_bytes = 0; guest_ops = 0; slots = 0 }

(* Run one batch's attempts [ran] straight through the pools, one at a
   time, under the batch's chaos engine, checking every outcome as
   [Server.run] does. With layers, every pool call is wrapped in a span:
   acquire (which restores), serve (guest execution, and the post-mortem
   on a crash), settle_crashed and heal (the crash path). *)
let replay st (acc : replay) ~seed ran =
  let span name f = Layers.span acc.layers name f in
  let config = server_config ~seed ~gap ~requests:batch in
  let pools =
    Array.of_list
      (List.mapi
         (fun i tn ->
           acc.slots <- acc.slots + config.slots;
           span "wasm.instantiate" (fun () ->
               Serve.Pool.create ~fuel:config.pool_fuel
                 ~lane_base:(1000 * (i + 1)) ~size:config.slots
                 ~seed:((seed * 31) + i) ~policy:config.policy tn))
         st.tenants)
  in
  let engine =
    Arch.Fault_inject.create (Harness.Serve_bench.chaos_policy ~seed)
  in
  let acquire pool ~now =
    let restores = Serve.Pool.restores pool in
    let slot =
      match span "serve.restore" (fun () -> Serve.Pool.acquire pool) with
      | Some s -> s
      | None -> (
          ignore (span "serve.crash" (fun () -> Serve.Pool.heal pool ~now));
          match span "serve.restore" (fun () -> Serve.Pool.acquire pool) with
          | Some s -> s
          | None -> failwith "serve_chaos replay: no slot after heal")
    in
    if Serve.Pool.restores pool > restores then
      acc.restored_bytes <-
        acc.restored_bytes + Serve.Snapshot.bytes slot.sl_snapshot;
    slot
  in
  Arch.Fault_inject.with_engine engine (fun () ->
      Array.iteri
        (fun i j ->
          let pool = pools.(j) in
          let tn = pool.Serve.Pool.pl_tenant in
          let slot = acquire pool ~now:((i + 1) * 1_000_000) in
          let before = Arch.Fault_inject.lane_count engine slot.sl_lane in
          let result, demand =
            span "serve.exec" (fun () -> Serve.Pool.serve pool slot)
          in
          acc.runs <- acc.runs + 1;
          acc.guest_ops <- acc.guest_ops + demand;
          let injected =
            Arch.Fault_inject.lane_count engine slot.sl_lane > before
          in
          match result with
          | Cage.Supervisor.Finished vs ->
              (match tn.tn_expected with
              | Some e when e <> vs ->
                  raise (Escape (tn.tn_name ^ ": wrong result in the replay"))
              | None when not injected ->
                  raise
                    (Escape "a malicious request finished without a tag fault")
              | _ -> ());
              Serve.Pool.settle_ok slot
          | Cage.Supervisor.Crashed pm ->
              if tn.tn_name = "malicious" && (not injected)
                 && not
                      (String.starts_with ~prefix:"tag fault:"
                         pm.Cage.Supervisor.pm_message)
              then
                failwith
                  ("serve_chaos: malicious request ended in "
                  ^ pm.Cage.Supervisor.pm_message);
              span "serve.crash" (fun () -> Serve.Pool.settle_crashed slot))
        ran)

let timed f =
  let t0 = Clock.now () in
  f ();
  Clock.now () -. t0

(* Each batch runs four times: through [Server.run] (untraced, as the
   end-to-end run does), again with a span recorder to read the attempts
   it ran, then the pool-driven replay of those attempts with spans, and
   without. The replay's layers, taken from the [Server.run] wall time,
   leave the runtime's own share: scheduler, policy and SLO work. *)
let run_traced st ~seed ~seconds =
  let l_setup = Layers.create () in
  List.iter
    (fun (_, _, src, _) ->
      ignore
        (Kernels.compile ~layers:l_setup
           ~mem_pages:Harness.Serve_bench.serve_mem_pages ~stack_bytes:16384
           cfg src))
    (cast ());
  let layers = Layers.create () in
  let on = replay_acc (Some layers) and off = replay_acc None in
  let t_server = ref 0.0 and w_server = ref 0.0 and server_reqs = ref 0 in
  let t_on = ref 0.0 and t_off = ref 0.0 in
  let failed = ref 0 and attempted = ref 0 in
  let ph =
    { queue = 0.0; restore = 0.0; exec = 0.0; retry = 0.0; latency = 0.0 }
  in
  let counts = Array.make 6 0 in
  let calib = Clock.col () in
  let b = ref 0 in
  while !t_server +. !t_on +. !t_off < seconds || !b < 3 do
    let s = batch_seed ~seed !b in
    let w0 = Clock.minor_words () in
    let t0 = Clock.now () in
    let r, co = serve st ~seed:s ~gap ~requests:batch in
    let dt = Clock.now () -. t0 and dw = Clock.minor_words () -. w0 in
    attempted := !attempted + batch;
    failed := !failed + (outcome ~requests:batch r co).failed;
    (match (r, attempts st ~seed:s) with
    | None, _ | _, (None, _, _) -> ()
    | Some r, (Some recorded, ran, skipped) ->
        List.iteri
          (fun j (tr : Serve.Server.tenant_report) ->
            let n =
              Array.fold_left (fun n k -> if k = j then n + 1 else n) 0 ran
            in
            if n + skipped.(j) <> tr.tr_requests + tr.tr_retries then
              failwith "serve_chaos: replay attempts differ from Server.run's")
          recorded.rp_tenants;
        t_server := !t_server +. dt;
        w_server := !w_server +. dw;
        server_reqs := !server_reqs + r.rp_requests;
        add_phases ph co;
        List.iteri
          (fun i n -> counts.(i) <- counts.(i) + n)
          [ r.rp_retries; r.rp_crashes; r.rp_shed; r.rp_breaker_trips;
            r.rp_heals; r.rp_injections ];
        t_on := !t_on +. timed (fun () -> replay st on ~seed:s ran);
        t_off := !t_off +. timed (fun () -> replay st off ~seed:s ran));
    Clock.push calib (Clock.calibrate ());
    incr b
  done;
  (* Serving layers per request, as Server.run's time is; wasm ones per
     run attempt. *)
  let reqs = float_of_int !server_reqs and runs = float_of_int on.runs in
  let us layer = 1e6 *. Layers.secs layers layer /. reqs in
  let server_us = 1e6 *. !t_server /. reqs in
  let restore = us "serve.restore" and exec = us "serve.exec"
  and crash = us "serve.crash" in
  let per_k i = 1000.0 *. float_of_int counts.(i) /. reqs in
  let slots = float_of_int on.slots in
  let off_us = 1e6 *. !t_off /. reqs in
  let traced_us = us "wasm.instantiate" +. restore +. exec +. crash in
  let exec_secs = Layers.secs layers "serve.exec" in
  {
    Outcome.correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    values =
      Outcome.minic_values l_setup ~n:(List.length st.tenants)
      @ [
          ( "wasm.instantiate_ms",
            1e3 *. Layers.secs layers "wasm.instantiate" /. slots );
          ( "wasm.instantiate_words",
            Layers.words layers "wasm.instantiate" /. slots );
          ("wasm.invoke_ms", 1e3 *. exec_secs /. runs);
          ( "wasm.ns_per_guest_op",
            1e9 *. exec_secs /. float_of_int on.guest_ops );
          ("wasm.words_per_guest_op",
           Layers.words layers "serve.exec" /. float_of_int on.guest_ops);
          ("wasm.guest_ops", float_of_int on.guest_ops /. runs);
          ("serve.restore_us", restore);
          ("serve.restore_bytes", float_of_int on.restored_bytes /. reqs);
          ("serve.exec_us", exec);
          ("serve.crash_us", crash);
          ("serve.runtime_us", server_us -. restore -. exec -. crash);
          ("serve.words_per_req", !w_server /. reqs);
          ("serve.modeled_queue_frac", ph.queue /. ph.latency);
          ("serve.modeled_restore_frac", ph.restore /. ph.latency);
          ("serve.modeled_exec_frac", ph.exec /. ph.latency);
          ("serve.modeled_retry_frac", ph.retry /. ph.latency);
          ("serve.retries", per_k 0); ("serve.crashes", per_k 1);
          ("serve.sheds", per_k 2); ("serve.breaker_trips", per_k 3);
          ("serve.heals", per_k 4); ("serve.injections", per_k 5);
          ("obs.trace_overhead_frac", !t_on /. !t_off);
          ("layers_unattributed_frac", (off_us -. traced_us) /. off_us);
        ];
    diagnostics =
      ("serve.exec_share_of_request", exec /. server_us)
      :: ("serve.server_run_us_per_request", server_us)
      :: ("serve.runs_per_request", runs /. reqs)
      :: Report.calibration (Clock.values calib);
  }

let run st ~seed ~seconds ~trace ~between =
  if trace then run_traced st ~seed ~seconds
  else run_e2e st ~seed ~seconds ~between
