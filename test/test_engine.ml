(* Engine-parity tests: the direct-threaded engine must be
   observationally identical to the reference interpreter — same
   results, same trap messages (including the trap-prefix taxonomy),
   same deferred-fault sync points, same fuel accounting — on the
   control-flow and fault edge cases where a compiled dispatch most
   plausibly diverges from a tree-walker. *)

open Wasm

let value = Alcotest.testable Values.pp Values.equal
let ft params results = { Types.params; results }

let mem64 =
  { Types.mem_idx = Types.Idx64;
    mem_limits = { Types.min = 1L; max = Some 16L } }

let module_of ?(memory = Some mem64) ?table funcs =
  let types = List.map (fun (ty, _, _) -> ty) funcs in
  {
    Ast.empty_module with
    types;
    table;
    funcs =
      List.mapi
        (fun i (_, locals, body) ->
          { Ast.ftype = i; locals; body; fname = Some (Printf.sprintf "f%d" i) })
        funcs;
    memory;
    exports =
      List.mapi
        (fun i _ ->
          { Ast.ex_name = Printf.sprintf "f%d" i; ex_desc = Ast.Func_export i })
        funcs;
  }

let engines = [ ("interp", Instance.Interp); ("threaded", Instance.Threaded) ]

(* Run [name] on a fresh instance per engine and return the outcomes
   (result or trap message) paired with the meters. *)
let on_both ?(config = Instance.default_config) m name args =
  List.map
    (fun (label, engine) ->
      let meter = Meter.create () in
      let config = { config with Instance.engine; meter = Some meter } in
      let outcome =
        match Exec.invoke (Exec.instantiate ~config m) name args with
        | vs -> Ok vs
        | exception Instance.Trap msg -> Error msg
      in
      (label, outcome, meter))
    engines

(* Assert both engines produced [expected] and identical meters. *)
let check_both ?config m name args expected =
  let results = on_both ?config m name args in
  List.iter
    (fun (label, outcome, _) ->
      match outcome with
      | Ok vs -> Alcotest.(check (list value)) label expected vs
      | Error msg -> Alcotest.failf "%s trapped: %s" label msg)
    results;
  match results with
  | [ (_, _, m_i); (_, _, m_t) ] ->
      Alcotest.(check bool) "meters bit-identical" true (m_i = m_t)
  | _ -> assert false

(* Tag identities are drawn from a per-instance RNG keyed on a global
   instance counter, so two fresh instances legitimately report
   different [#n] tag values in otherwise identical trap messages.
   Mask the digits after '#' so the comparison pins everything else:
   fault kind, access size, address, memory-vs-tag role. *)
let mask_tags msg =
  let b = Buffer.create (String.length msg) in
  let n = String.length msg in
  let i = ref 0 in
  while !i < n do
    let c = msg.[!i] in
    Buffer.add_char b c;
    incr i;
    if c = '#' then begin
      while !i < n && msg.[!i] >= '0' && msg.[!i] <= '9' do incr i done;
      Buffer.add_char b 'N'
    end
  done;
  Buffer.contents b

(* Assert both engines trapped with the same message (modulo tags). *)
let check_both_trap ?config ~substring m name args =
  let results = on_both ?config m name args in
  let msgs =
    List.map
      (fun (label, outcome, _) ->
        match outcome with
        | Ok _ -> Alcotest.failf "%s: expected trap containing %S" label
                    substring
        | Error msg ->
            if not (Astring.String.is_infix ~affix:substring msg) then
              Alcotest.failf "%s: trap %S does not mention %S" label msg
                substring;
            msg)
      results
  in
  match msgs with
  | [ mi; mt ] ->
      Alcotest.(check string) "identical trap message" (mask_tags mi)
        (mask_tags mt)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Control-flow edge cases                                              *)
(* ------------------------------------------------------------------ *)

let test_rejected_at_instantiate () =
  (* invalid bodies never reach either engine: instantiation rejects
     them with the typed error before allocating anything, so the
     instance ids on either side of a rejection are consecutive *)
  let valid = module_of [ (ft [] [], [], []) ] in
  let invalid =
    [ ("bad label", "branch depth",
       [ Ast.Block
           (Ast.ValBlock None, [ Ast.I32Const 0l; Ast.BrTable ([ 5 ], 6) ]) ]);
      ("type mismatch", "type mismatch",
       [ Ast.I64Const 1L; Ast.I32Const 2l;
         Ast.IBinop (Ast.W32, Ast.Add); Ast.Drop ]);
      ("operand underflow", "underflow",
       [ Ast.I32Const 1l; Ast.IBinop (Ast.W32, Ast.Add); Ast.Drop ]) ]
  in
  List.iter
    (fun (_, engine) ->
      let config = { Instance.default_config with Instance.engine } in
      List.iter
        (fun (what, substring, body) ->
          let before = (Exec.instantiate ~config valid).Instance.id in
          (match Exec.instantiate ~config (module_of [ (ft [] [], [], body) ]) with
          | _ -> Alcotest.failf "%s: instantiated" what
          | exception Instance.Invalid_module msg ->
              if not (Astring.String.is_infix ~affix:substring msg) then
                Alcotest.failf "%s: %S does not mention %S" what msg substring);
          let after = (Exec.instantiate ~config valid).Instance.id in
          Alcotest.(check int) (what ^ ": nothing allocated") (before + 1) after)
        invalid)
    engines

(* Every local function of a [Threaded] instance is lowered. *)
let check_all_threaded m =
  let inst = Exec.instantiate m in
  Array.iter
    (function
      | Instance.Wasm_func { xcode = None; func; _ } ->
          Alcotest.failf "%s not lowered"
            (Option.value func.Ast.fname ~default:"?")
      | _ -> ())
    inst.Instance.funcs

let test_branch_extra_operands () =
  (* validated wasm may leave extra operands beneath a branch's label
     values; the branch discards them. Both engines agree, and the
     threaded compiler lowers every one of these bodies. *)
  let i32 v = Ast.I32Const v in
  let add = Ast.IBinop (Ast.W32, Ast.Add) in
  let res = Ast.ValBlock (Some Types.I32) in
  let m =
    module_of
      [ (* br_if with an operand beneath the label value *)
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.Block
             (res,
              [ i32 99l; i32 7l; Ast.LocalGet 0; Ast.BrIf 0; Ast.Drop;
                Ast.Drop; i32 5l ]);
           i32 1000l; add ]);
        (* br_table targets at three different heights *)
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.Block
             (res,
              [ i32 100l;
                Ast.Block
                  (res,
                   [ i32 200l;
                     Ast.Block
                       (res,
                        [ i32 300l; i32 7l; Ast.LocalGet 0;
                          Ast.BrTable ([ 0; 1 ], 2) ]);
                     add ]);
                add ]) ]);
        (* a loop back-edge with a leftover operand *)
        (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.Loop
             (Ast.ValBlock None,
              [ i32 42l; Ast.LocalGet 0; i32 1l; add; Ast.LocalTee 0;
                i32 5l; Ast.IRelop (Ast.W32, Ast.LtS); Ast.BrIf 0;
                Ast.Drop ]);
           Ast.LocalGet 0 ]);
        (* return from under a block, over leftovers *)
        (ft [ Types.I32 ] [ Types.I32 ], [],
         [ Ast.Block
             (Ast.ValBlock None,
              [ i32 1l; i32 2l; Ast.LocalGet 0; Ast.Return ]);
           i32 0l ]) ]
  in
  check_all_threaded m;
  let r v = [ Values.I32 v ] in
  check_both m "f0" (r 1l) (r 1007l);
  check_both m "f0" (r 0l) (r 1005l);
  check_both m "f1" (r 0l) (r 307l);
  check_both m "f1" (r 1l) (r 107l);
  check_both m "f1" (r 2l) (r 7l);
  check_both m "f1" (r (-1l)) (r 7l);
  check_both m "f2" [] (r 5l);
  check_both m "f3" (r 9l) (r 9l)

let test_host_arguments_checked () =
  (* the host boundary checks argument types and arity: the same trap
     on both engines, before the callee runs *)
  let m =
    module_of
      [ (ft [ Types.I32 ] [ Types.I32 ], [], [ Ast.LocalGet 0 ]) ]
  in
  check_both_trap ~substring:"do not match" m "f0" [ Values.I64 1L ];
  check_both_trap ~substring:"do not match" m "f0" [];
  check_both_trap ~substring:"do not match" m "f0"
    [ Values.I32 1l; Values.I32 2l ]

let test_zero_iteration_loop () =
  (* the loop header is entered once, the back-edge never taken: the
     fall-through must not re-run the body or desync the stack *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.Block
             (Ast.ValBlock None,
              [ Ast.Loop
                  (Ast.ValBlock None,
                   [ Ast.LocalGet 0; Ast.BrIf 0 ]) ]);
           Ast.I32Const 42l ]) ]
  in
  check_both m "f0" [] [ Values.I32 42l ]

let test_if_empty_else () =
  (* a false condition with an empty else arm falls through cleanly *)
  let m =
    module_of
      [ (ft [ Types.I32 ] [ Types.I32 ], [ Types.I32 ],
         [ Ast.LocalGet 0;
           Ast.If (Ast.ValBlock None, [ Ast.I32Const 7l; Ast.LocalSet 1 ], []);
           Ast.LocalGet 1 ]) ]
  in
  check_both m "f0" [ Values.I32 0l ] [ Values.I32 0l ];
  check_both m "f0" [ Values.I32 1l ] [ Values.I32 7l ]

(* ------------------------------------------------------------------ *)
(* Deferred (TFSR) faults drain at the same sync points                 *)
(* ------------------------------------------------------------------ *)

(* Allocate a segment, free it, then touch it: the access faults. *)
let freed_segment_module after =
  module_of
    [ (ft [] [], [ Types.I64 ],
       [ Ast.I64Const 1024L; Ast.I64Const 32L; Ast.SegmentNew 0L;
         Ast.LocalSet 0;
         Ast.LocalGet 0; Ast.I64Const 32L; Ast.SegmentFree 0L ]
       @ after) ]

let memarg () = { Ast.offset = 0L; align = 3 }

let test_async_deferred_same_sync_point () =
  (* Async mode: the faulting store proceeds, the mismatch latches, and
     both engines report the same sticky first fault at the same sync
     point (function return) *)
  let m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I64Const 99L; Ast.Store (Types.I64, None, memarg ());
        Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()); Ast.Drop ]
  in
  let config = { Instance.default_config with mte_mode = Arch.Mte.Async } in
  check_both_trap ~config ~substring:"deferred" m "f0" []

let test_asymmetric_store_sync_load_deferred () =
  (* Asymmetric: stores trap synchronously (identical immediate trap),
     loads latch and drain at return *)
  let store_m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.I64Const 99L;
        Ast.Store (Types.I64, None, memarg ()) ]
  in
  let load_m =
    freed_segment_module
      [ Ast.LocalGet 0; Ast.Load (Types.I64, None, memarg ()); Ast.Drop ]
  in
  let config =
    { Instance.default_config with mte_mode = Arch.Mte.Asymmetric }
  in
  check_both_trap ~config ~substring:"tag fault" store_m "f0" [];
  check_both_trap ~config ~substring:"deferred" load_m "f0" []

(* ------------------------------------------------------------------ *)
(* Trap parity: the threaded engine's own trap sites                    *)
(* ------------------------------------------------------------------ *)

let mem32 =
  { Types.mem_idx = Types.Idx32;
    mem_limits = { Types.min = 1L; max = Some 16L } }

let test_trap_messages_identical () =
  (* every trap the compiler raises inline (rather than through the
     shared Rt/Checked layer) must read exactly as the reference's *)
  let page = 65536L in
  let ld ?(offset = 0L) ty = Ast.Load (ty, None, { Ast.offset; align = 0 }) in
  let st ty = Ast.Store (ty, None, { Ast.offset = 0L; align = 0 }) in
  let trap ?memory ?table ?(params = []) ?(locals = []) ?(args = []) substring
      body =
    let m = module_of ?memory ?table [ (ft params [], locals, body) ] in
    check_both_trap ~substring m "f0" args
  in
  let i32 v = Ast.I32Const v and i64 v = Ast.I64Const v in
  let ibin w op = Ast.IBinop (w, op) in
  let ddrop = [ Ast.Drop ] in
  trap "divide by zero" ([ i32 7l; i32 0l; ibin Ast.W32 Ast.DivS ] @ ddrop);
  trap "divide by zero" ([ i32 7l; i32 0l; ibin Ast.W32 Ast.RemU ] @ ddrop);
  trap "integer overflow"
    ([ i32 Int32.min_int; i32 (-1l); ibin Ast.W32 Ast.DivS ] @ ddrop);
  trap "divide by zero" ([ i64 7L; i64 0L; ibin Ast.W64 Ast.DivU ] @ ddrop);
  trap "unreachable" [ Ast.Unreachable ];
  (* scalar bounds traps: 64-bit and 32-bit addresses, plain and fused
     (local.get; load), loads and stores, and memarg offsets beyond the
     native range *)
  trap "out of bounds" ([ i64 page; ld Types.I64 ] @ ddrop);
  trap ~params:[ Types.I64 ] ~args:[ Values.I64 page ] "out of bounds"
    ([ Ast.LocalGet 0; ld Types.F64 ] @ ddrop);
  trap ~memory:(Some mem32) "out of bounds" [ i32 65535l; i32 1l; st Types.I32 ];
  trap ~memory:(Some mem32) ~params:[ Types.I32 ] ~args:[ Values.I32 65533l ]
    "out of bounds" [ Ast.LocalGet 0; i64 1L; st Types.I64 ];
  trap "out of bounds" ([ i64 0L; ld ~offset:0x8000_0000L Types.I32 ] @ ddrop);
  trap ~memory:(Some mem32) "out of bounds"
    ([ i32 0l; ld ~offset:0xffff_ffffL Types.I32 ] @ ddrop);
  trap "non-canonical" ([ i64 0x0001_0000_0000_0000L; ld Types.I64 ] @ ddrop);
  (* indirect calls and the call stack *)
  let table = { Types.tbl_limits = { Types.min = 1L; max = Some 1L } } in
  trap ~table "undefined element" [ i32 5l; Ast.CallIndirect 0 ];
  trap ~table "uninitialized" [ i32 0l; Ast.CallIndirect 0 ];
  trap "call stack exhausted" [ Ast.Call 0 ]

(* ------------------------------------------------------------------ *)
(* Fused superinstructions: PolyBench parity                            *)
(* ------------------------------------------------------------------ *)

let test_polybench_parity () =
  (* the PolyBench kernels are the code the fused idioms were built
     for: under 32-bit and under CAGE addressing, every kernel must
     give the same result and every meter counter on both engines *)
  List.iter
    (fun cfg ->
      List.iter
        (fun (k : Workloads.Polybench.kernel) ->
          let m =
            (Minic.Driver.compile
               ~opts:(Minic.Driver.options_of_config cfg)
               ~prelude:(Libc.Source.prelude_of_config cfg)
               k.k_source)
              .Minic.Driver.co_module
          in
          let run engine =
            let meter = Meter.create () in
            let config =
              Cage.Config.instance_config ~meter
                (Cage.Config.with_engine engine cfg)
            in
            let imports = Libc.Wasi.imports (Libc.Wasi.create ()) in
            (Exec.invoke (Exec.instantiate ~config ~imports m) "main" [], meter)
          in
          let v_i, m_i = run Instance.Interp in
          let v_t, m_t = run Instance.Threaded in
          let what = k.k_name ^ " under " ^ cfg.Cage.Config.name in
          Alcotest.(check (list value)) (what ^ ": result") v_i v_t;
          Alcotest.(check bool) (what ^ ": meters bit-identical") true
            (m_i = m_t))
        Workloads.Polybench.all)
    [ Cage.Config.baseline_wasm32; Cage.Config.full ]

(* ------------------------------------------------------------------ *)
(* Fuel watchdog parity                                                 *)
(* ------------------------------------------------------------------ *)

let test_fuel_exhaustion_identical () =
  (* a runaway loop must burn its budget to exactly zero and trap with
     the same message on both engines *)
  let m =
    module_of [ (ft [] [], [], [ Ast.Loop (Ast.ValBlock None, [ Ast.Br 0 ]) ]) ]
  in
  let config = { Instance.default_config with fuel = 10_000 } in
  check_both_trap ~config ~substring:"fuel" m "f0" []

let test_fuel_remaining_identical () =
  (* a terminating loop leaves the same fuel on both engines: every
     branch and call burns exactly one unit in the same places *)
  let m =
    module_of
      [ (ft [] [ Types.I32 ], [ Types.I32 ],
         [ Ast.I32Const 50l; Ast.LocalSet 0;
           Ast.Block
             (Ast.ValBlock None,
              [ Ast.Loop
                  (Ast.ValBlock None,
                   [ Ast.LocalGet 0; Ast.I32Const 1l;
                     Ast.IBinop (Ast.W32, Ast.Sub); Ast.LocalSet 0;
                     Ast.LocalGet 0; Ast.BrIf 0 ]) ]);
           Ast.LocalGet 0 ]) ]
  in
  let left =
    List.map
      (fun (label, engine) ->
        let config =
          { Instance.default_config with Instance.engine; fuel = 10_000 }
        in
        let inst = Exec.instantiate ~config m in
        (match Exec.invoke inst "f0" [] with
        | [ Values.I32 0l ] -> ()
        | vs ->
            Alcotest.failf "%s: unexpected result %s" label
              (Format.asprintf "%a"
                 (Format.pp_print_list Values.pp)
                 vs));
        inst.Instance.fuel)
      engines
  in
  match left with
  | [ f_i; f_t ] ->
      Alcotest.(check int) "identical fuel remaining" f_i f_t;
      Alcotest.(check bool) "fuel was actually burned" true (f_i < 10_000)
  | _ -> assert false

let () =
  Alcotest.run "engine"
    [
      ( "control",
        [
          Alcotest.test_case "rejected at instantiate" `Quick
            test_rejected_at_instantiate;
          Alcotest.test_case "branches over extra operands" `Quick
            test_branch_extra_operands;
          Alcotest.test_case "host arguments checked" `Quick
            test_host_arguments_checked;
          Alcotest.test_case "zero-iteration loop" `Quick
            test_zero_iteration_loop;
          Alcotest.test_case "if with empty else" `Quick test_if_empty_else;
        ] );
      ( "faults",
        [
          Alcotest.test_case "trap messages identical" `Quick
            test_trap_messages_identical;
          Alcotest.test_case "async deferred drains at return" `Quick
            test_async_deferred_same_sync_point;
          Alcotest.test_case "asymmetric store sync, load deferred" `Quick
            test_asymmetric_store_sync_load_deferred;
        ] );
      ( "fused",
        [
          Alcotest.test_case "PolyBench parity" `Quick test_polybench_parity;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "exhaustion identical" `Quick
            test_fuel_exhaustion_identical;
          Alcotest.test_case "remaining identical" `Quick
            test_fuel_remaining_identical;
        ] );
    ]
