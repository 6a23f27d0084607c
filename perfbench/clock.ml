(* Host-clock and allocation probes, the measured loop, and the machine
   drift calibration. Nothing here calls repository code. *)

let now = Unix.gettimeofday
let minor_words = Gc.minor_words

(* A fixed pure-OCaml loop: its time moves only with the machine (clock
   speed, neighbours, thermal state), never with a change to the system
   under test. Timed between measured batches, reported beside the
   metrics so a reader can tell machine drift from a real change. *)
let calibrate () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 3_000_000 do
    acc := ((!acc * 31) + i) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* Nearest-rank percentile of an unsorted sample. *)
let percentile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: empty sample";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

(* Samples an untraced run keeps beyond its p99 at the least. *)
let p99_tail = 10

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* A growable float column. *)
type col = { mutable data : float array; mutable len : int }

let col () = { data = Array.make 4096 0.0; len = 0 }

let push c x =
  if c.len = Array.length c.data then begin
    let d = Array.make (2 * c.len) 0.0 in
    Array.blit c.data 0 d 0 c.len;
    c.data <- d
  end;
  c.data.(c.len) <- x;
  c.len <- c.len + 1

let values c = Array.sub c.data 0 c.len

type phase = {
  ops : int;
  times : float array;  (** wall seconds of each op *)
  words : float array;  (** minor words of each op *)
  busy : float;  (** wall seconds of the measured batches *)
  calib : float array;  (** calibration loop times between batches *)
}

(* Wall seconds of one measured batch. *)
let batch = 0.5

(* Run [op 0], [op 1], ... in batches of about [batch] seconds until
   [seconds] of batch time have passed, at least [min_ops] ops ran and
   the op count is a whole number of [round]s, stopping early only when
   [max_ops] is reached. Every op is timed
   and its minor words counted on its own; [after i] (checking and
   accounting for op [i]), [between ()] and the calibration loop, both
   after every batch, run outside the measured time. The first [exact]
   ops, whose allocation and peak heap are reported as exact counts, run
   as one batch: no calibration, nothing whose timing the clock decides,
   runs among them. *)
let measure ?(max_ops = max_int) ?(after = ignore)
    ?(round = 1) ?(exact = 0) ~between ~seconds ~min_ops op =
  let times = col () and words = col () and calib = col () in
  let busy = ref 0.0 and i = ref 0 in
  let more () =
    (!busy < seconds || !i < min_ops || !i mod round <> 0) && !i < max_ops
  in
  while more () do
    let b0 = !busy in
    while more () && (!i < exact || !busy -. b0 < batch) do
      let w0 = minor_words () in
      let t0 = now () in
      op !i;
      let t1 = now () in
      let w1 = minor_words () in
      push times (t1 -. t0);
      push words (w1 -. w0);
      busy := !busy +. (t1 -. t0);
      after !i;
      incr i
    done;
    between ();
    push calib (calibrate ())
  done;
  {
    ops = !i;
    times = values times;
    words = values words;
    busy = !busy;
    calib = values calib;
  }

(* A call of [f] timed into [c]. It starts from a collected heap and
   leaves one, so it neither pays for garbage left before it nor leaves
   its own to whatever runs next. *)
let timed_into c f =
  Gc.full_major ();
  let t0 = now () in
  let v = f () in
  push c (now () -. t0);
  Gc.full_major ();
  v

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0
