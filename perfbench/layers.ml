(* Per-layer accumulators for the traced run. A span wraps one call into
   a layer's public function, from the benchmark's side of the call:
   wall seconds and minor words add up per layer name. Counts of
   the work a layer did (instructions emitted, ...) sit beside them. *)

type acc = { mutable secs : float; mutable words : float }

type t = { spans : (string, acc) Hashtbl.t; counts : (string, int) Hashtbl.t }

let create () = { spans = Hashtbl.create 16; counts = Hashtbl.create 4 }

let acc t name =
  match Hashtbl.find_opt t.spans name with
  | Some a -> a
  | None ->
      let a = { secs = 0.0; words = 0.0 } in
      Hashtbl.replace t.spans name a;
      a

let count (t : t option) name n =
  match t with
  | None -> ()
  | Some t ->
      Hashtbl.replace t.counts name
        (n + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let counted t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

(* [span None] is the untraced path: the call alone, no probes. *)
let span (t : t option) name f =
  match t with
  | None -> f ()
  | Some t ->
      let a = acc t name in
      let w0 = Clock.minor_words () in
      let t0 = Clock.now () in
      let v = f () in
      let t1 = Clock.now () in
      let w1 = Clock.minor_words () in
      a.secs <- a.secs +. (t1 -. t0);
      a.words <- a.words +. (w1 -. w0);
      v

let secs t name = (acc t name).secs
let words t name = (acc t name).words

(* Seconds spent in every layer together. *)
let total_secs t = Hashtbl.fold (fun _ a s -> s +. a.secs) t.spans 0.0
