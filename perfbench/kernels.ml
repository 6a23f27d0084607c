(* PolyBench kernel variants, the committed checksum oracle, and the
   toolchain pipeline, called either through its public entry points
   (untraced) or layer by layer with a span around each call (traced). *)

open Printf

let kernels = Array.of_list Workloads.Polybench.all

(* Each kernel has one problem-size knob: the declaration of its size
   variable and the mini value it carries. *)
let knob (k : Workloads.Polybench.kernel) =
  match k.k_name with
  | "doitgen" -> ("int nr = ", 8)
  | "dynprog" -> ("int len = ", 12)
  | _ -> ("int n = ", 20)

let base_size k = snd (knob k)

(* toolchain_cold draws sizes mini-4 .. mini+4 and allocation slack
   0 .. 15 granules per dalloc; exec_checked runs every kernel at twice
   the mini size (n = 40). *)
let cold_deltas = Array.init 9 (fun i -> i - 4)
let cold_pads = Array.init 16 (fun i -> 16 * i)
let exec_size k = 2 * base_size k

let replace_once ~sub ~by s =
  let n = String.length sub and len = String.length s in
  let rec matches i j = j = n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec find i acc =
    if i + n > len then acc
    else if matches i 0 then find (i + n) (i :: acc)
    else find (i + 1) acc
  in
  match find 0 [] with
  | [ i ] -> String.sub s 0 i ^ by ^ String.sub s (i + n) (len - i - n)
  | hits ->
      failwith
        (sprintf "kernel source: %S occurs %d times, expected once" sub
           (List.length hits))

(* The kernel at problem size [size], every [dalloc] asking for [pad]
   extra bytes. Slack changes the module, the heap layout and the tag
   traffic but never the checksum. *)
let source (k : Workloads.Polybench.kernel) ~size ~pad =
  let decl, base = knob k in
  let s =
    replace_once
      ~sub:(sprintf "%s%d;" decl base)
      ~by:(sprintf "%s%d;" decl size)
      k.k_source
  in
  if pad = 0 then s
  else
    replace_once ~sub:"malloc(n * 8)" ~by:(sprintf "malloc(n * 8 + %d)" pad) s

(* ------------------------------------------------------------------ *)
(* Configurations and their elision modes                              *)
(* ------------------------------------------------------------------ *)

(* toolchain_cold: CAGE with the complete elision plan installed.
   exec_checked and serve_chaos: the CAGE row as shipped. *)
let cold_cfg = Cage.Config.(with_arena (with_bounds_elision full))
let checked_cfg = Cage.Config.full

let elision_mode (cfg : Cage.Config.t) =
  if not cfg.elide_checks then "none"
  else
    String.concat "+"
      ([ "tag" ]
      @ (if cfg.elide_bounds then [ "bounds" ] else [])
      @ if cfg.arena then [ "arena" ] else [])

(* ------------------------------------------------------------------ *)
(* The oracle: expected checksum of every variant that can be drawn    *)
(* ------------------------------------------------------------------ *)

let oracle_file dir = Filename.concat dir "oracle.txt"

let load_oracle dir : (string * int, int32) Hashtbl.t =
  let h = Hashtbl.create 512 in
  let ic = open_in (oracle_file dir) in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %d %ld" (fun k n v -> Hashtbl.replace h (k, n) v)
     done
   with End_of_file -> close_in ic);
  h

let expected oracle (k : Workloads.Polybench.kernel) size =
  match Hashtbl.find_opt oracle (k.k_name, size) with
  | Some v -> v
  | None ->
      failwith (sprintf "oracle: no checksum for %s at size %d" k.k_name size)

(* Generate the oracle: every (kernel, size) must agree across all six
   Table 3 rows on both engines, and every slack variant must agree
   under the toolchain_cold configuration, before a line is written. *)
let write_oracle dir =
  let oc = open_out (oracle_file dir) in
  fprintf oc
    "# kernel size checksum: agreed by all six Table 3 rows on both \
     engines, and by every slack variant under CAGE with the full plan\n";
  Array.iter
    (fun (k : Workloads.Polybench.kernel) ->
      let sizes =
        Array.to_list (Array.map (fun d -> base_size k + d) cold_deltas)
        @ [ exec_size k ]
      in
      List.iter
        (fun size ->
          let src = source k ~size ~pad:0 in
          let runs =
            List.concat_map
              (fun cfg ->
                List.map
                  (fun e ->
                    let cfg = Cage.Config.with_engine e cfg in
                    ( cfg.Cage.Config.name,
                      Libc.Run.ret_i32 (Libc.Run.run ~cfg src) ))
                  Wasm.Instance.[ Interp; Threaded ])
              Cage.Config.table3
          in
          let v = snd (List.hd runs) in
          List.iter
            (fun (name, v') ->
              if v' <> v then
                failwith
                  (sprintf "oracle: %s n=%d: %s gives %ld, expected %ld"
                     k.k_name size name v' v))
            runs;
          if size <> exec_size k then
            Array.iter
              (fun pad ->
                let v' =
                  Libc.Run.ret_i32
                    (Libc.Run.run ~cfg:cold_cfg (source k ~size ~pad))
                in
                if v' <> v then
                  failwith
                    (sprintf "oracle: %s n=%d pad=%d gives %ld, expected %ld"
                       k.k_name size pad v' v))
              cold_pads;
          fprintf oc "%s %d %ld\n" k.k_name size v)
        sizes;
      eprintf "oracle: %s done\n%!" k.k_name)
    kernels;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let span layers name f = Layers.span layers name f

let rec count_instrs l =
  List.fold_left
    (fun n (i : Wasm.Ast.instr) ->
      n + 1
      +
      match i with
      | Block (_, b) | Loop (_, b) -> count_instrs b
      | If (_, a, b) -> count_instrs a + count_instrs b
      | _ -> 0)
    0 l

let module_instrs (m : Wasm.Ast.module_) =
  List.fold_left
    (fun n (f : Wasm.Ast.func) -> n + count_instrs f.body)
    0 m.funcs

(* MiniC source to a validated module. Untraced, this is the public
   [Minic.Driver.compile]; traced, the same steps in the same order,
   one span per layer. *)
let compile ?layers ?(mem_pages = 80L) ?(stack_bytes = 65536)
    (cfg : Cage.Config.t) src =
  let opts =
    { (Minic.Driver.options_of_config cfg) with
      Minic.Driver.mem_pages; stack_bytes }
  in
  let prelude = Libc.Source.prelude_of_config cfg in
  match layers with
  | None -> (Minic.Driver.compile ~opts ~prelude src).co_module
  | Some _ ->
      let cst =
        span layers "minic.parse" (fun () ->
            Minic.Parser.parse (prelude ^ "\n" ^ src))
      in
      let ir =
        span layers "minic.elab" (fun () ->
            Minic.Elab.program ~ptr64:opts.ptr64 cst)
      in
      span layers "minic.opt" (fun () ->
          if opts.optimize then Minic.Opt.run ir);
      let m =
        span layers "minic.codegen" (fun () ->
            if opts.memsafety then
              ignore
                (Minic.Stack_sanitizer.run ~instrument_all:opts.instrument_all
                   ir);
            Minic.Codegen.compile
              ~opts:
                {
                  Minic.Codegen.memsafety = opts.memsafety;
                  pauth = opts.pauth;
                  mem_pages = opts.mem_pages;
                  stack_bytes = opts.stack_bytes;
                }
              ir)
      in
      span layers "wasm.validate" (fun () ->
          match Wasm.Validate.validate ~cage:true m with
          | Ok () -> ()
          | Error e -> failwith ("generated invalid wasm: " ^ e));
      Layers.count layers "minic.wasm_instrs" (module_instrs m);
      m

(* The instance configuration for [cfg], with the elision plan installed
   when [cfg] asks for one. *)
let instance_config ?layers ~meter (cfg : Cage.Config.t) m =
  let config = Cage.Config.instance_config ~meter ~seed:0 cfg in
  if not cfg.elide_checks then config
  else
    let plan =
      span layers "analysis.plan" (fun () ->
          Analysis.Elide.plan ~spec_safe:cfg.spec_safe_only ~arena:cfg.arena m)
    in
    {
      config with
      Wasm.Instance.elide = plan.Analysis.Elide.bitsets;
      belide =
        (if cfg.elide_bounds then plan.Analysis.Elide.bbitsets else [||]);
      arena = plan.Analysis.Elide.arena;
    }

let instantiate ?layers config m =
  let wasi = Libc.Wasi.create () in
  span layers "wasm.instantiate" (fun () ->
      Wasm.Exec.instantiate ~config ~imports:(Libc.Wasi.imports wasi) m)

let invoke ?layers inst =
  match
    span layers "wasm.invoke" (fun () -> Wasm.Exec.invoke inst "main" [])
  with
  | [ Wasm.Values.I32 v ] -> v
  | _ -> failwith "main did not return one i32"

(* One cold toolchain op: source in, checksum out. Untraced it is the
   one-call [Libc.Run.run] a user drives. *)
let cold ?layers ~meter src =
  match layers with
  | None -> Libc.Run.ret_i32 (Libc.Run.run ~cfg:cold_cfg ~meter src)
  | Some _ ->
      let m = compile ?layers cold_cfg src in
      let config = instance_config ?layers ~meter cold_cfg m in
      invoke ?layers (instantiate ?layers config m)

(* One checked execution op on a module compiled in set-up. *)
let exec ?layers ~meter cfg m =
  invoke ?layers (instantiate ?layers (instance_config ~meter cfg m) m)
