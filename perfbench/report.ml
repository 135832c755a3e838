(* What one workload run hands back to bench.ml. *)

type t = {
  attempted : int;  (** operations the correctness gates looked at *)
  failed : int;  (** of those, the ones that failed a gate *)
  e2e : (string * float) list;  (** end-to-end metrics, untraced passes *)
  layers : (string * float) list;
      (** per-layer metrics from traced passes; empty when untraced *)
  lines : string list;  (** human-readable detail, printed before the JSON *)
}

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** the smoke-test size: every path runs, briefly *)
  el_sim : string;  (** the built [el-sim] executable *)
  tmp : string;  (** a private scratch directory, removed on exit *)
}

(* Runs [pass i] for i = 0, 1, ... until [seconds] have elapsed, at
   least [min_passes] times.  A traced run alternates untraced (even)
   and traced (odd) passes, so it needs at least two. *)
let repeat (o : opts) ?(min_passes = 1) pass =
  let min_passes = if o.trace then max 2 min_passes else min_passes in
  let t0 = Trace.now () in
  let rec go i =
    if i < min_passes || Trace.now () -. t0 < o.seconds then begin
      pass i;
      go (i + 1)
    end
  in
  go 0

let traced_pass (o : opts) i = o.trace && i mod 2 = 1

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0
let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0.0
let fl = float_of_int
