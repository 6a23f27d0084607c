(* Exact counts taken from guest meters, summed over ops. *)

type t = {
  mutable ops : int;  (** metered ops summed *)
  mutable cycles : float;  (** Cage.Lowering.cycles on the Cortex-X3 *)
  mutable guest_ops : int;  (** Wasm.Meter.total *)
  mutable accesses : int;
  mutable elided_tag : int;
  mutable elided_bounds : int;
  mutable tag_writes : int;  (** granules tagged or arena-lowered *)
  mutable tag_writes_elided : int;
  mutable insns : float;  (** native instructions after expansion *)
  mutable mte_insns : float;  (** of which MTE tag or PAC instructions *)
}

let create () =
  {
    ops = 0; cycles = 0.0; guest_ops = 0; accesses = 0; elided_tag = 0;
    elided_bounds = 0; tag_writes = 0; tag_writes_elided = 0; insns = 0.0;
    mte_insns = 0.0;
  }

let core = Arch.Cpu_model.cortex_x3

let tag_or_pac (k : Arch.Insn.kind) =
  match k with
  | Irg | Addg | Subg | Subp | Subps | Stg | St2g | Stzg | St2zg | Stgp | Ldg
  | Pacdza | Pacda | Autdza | Autda | Xpacd ->
      true
  | _ -> false

let add t cfg (m : Wasm.Meter.t) =
  t.ops <- t.ops + 1;
  t.cycles <- t.cycles +. Cage.Lowering.cycles core cfg m;
  t.guest_ops <- t.guest_ops + Wasm.Meter.total m;
  t.accesses <- t.accesses + Wasm.Meter.mem_accesses m;
  t.elided_tag <- t.elided_tag + m.elided_checks;
  t.elided_bounds <- t.elided_bounds + m.elided_bounds;
  let elided = m.arena_new_granules + m.arena_free_granules in
  t.tag_writes_elided <- t.tag_writes_elided + elided;
  t.tag_writes <-
    t.tag_writes + elided + m.seg_new_granules + m.seg_free_granules;
  List.iter
    (fun (k, n) ->
      t.insns <- t.insns +. n;
      if tag_or_pac k then t.mte_insns <- t.mte_insns +. n)
    (Cage.Lowering.expansion cfg m)

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_op t x = if t.ops = 0 then 0.0 else x /. float_of_int t.ops

(* The meter-derived per-layer metrics. *)
let layer_metrics t =
  [
    ("analysis.tag_elided_frac", frac t.elided_tag t.accesses);
    ("analysis.bounds_elided_frac", frac t.elided_bounds t.accesses);
    ("analysis.tag_writes_elided_frac", frac t.tag_writes_elided t.tag_writes);
    ("wasm.guest_ops", per_op t (float_of_int t.guest_ops));
    ("wasm.checked_accesses",
     per_op t (float_of_int (t.accesses - t.elided_tag)));
    ( "cage.mte_insn_frac",
      if t.insns = 0.0 then 0.0 else t.mte_insns /. t.insns );
  ]
