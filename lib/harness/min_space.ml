open El_model
module Pool = El_par.Pool

(* The smallest feasible size in [lo, hi], given that [hi] is feasible
   with [result_at_hi]. *)
let bisect ?(pool = Pool.serial) ~lo ~hi result_at_hi probe =
  let jobs = Pool.jobs pool in
  if jobs = 1 then begin
    (* Plain binary search — the historical serial path, kept
       verbatim so [jobs = 1] runs are byte-identical to a world
       without pools.
       Invariant: [best] is feasible at [best_n]; everything below
       [lo'] is known infeasible. *)
    let rec refine lo' best_n best =
      if lo' >= best_n then Some (best_n, best)
      else begin
        let mid = (lo' + best_n) / 2 in
        let r = probe mid in
        if r.Experiment.feasible then refine lo' mid r
        else refine (mid + 1) best_n best
      end
    in
    refine lo hi result_at_hi
  end
  else begin
    (* Speculative bracket mode: each round probes up to [jobs]
       evenly spaced candidates of the open bracket [lo', best_n)
       concurrently, then narrows the bracket as if the probes had
       been answered one by one in ascending order.  Feasibility is
       monotone in the log size, so the smallest feasible candidate
       bounds the bracket above and every infeasible candidate below
       it raises the floor — the search converges to exactly the
       binary search's minimum (with [jobs = 1] the candidate set
       degenerates to the binary-search midpoint). *)
    let rec refine lo' best_n best =
      if lo' >= best_n then Some (best_n, best)
      else begin
        let width = best_n - lo' in
        let k = min jobs width in
        let candidates =
          List.sort_uniq compare
            (List.init k (fun i -> lo' + (width * (i + 1) / (k + 1))))
        in
        let results = Pool.map pool (fun n -> (n, probe n)) candidates in
        let rec scan lo' = function
          | [] -> refine lo' best_n best
          | (n, r) :: _ when r.Experiment.feasible -> refine lo' n r
          | (n, _) :: rest -> scan (n + 1) rest
        in
        scan lo' results
      end
    in
    refine lo hi result_at_hi
  end

let min_feasible ?pool ~lo ~hi probe =
  if lo > hi then invalid_arg "Min_space.min_feasible: empty range";
  let result_at_hi = probe hi in
  if not result_at_hi.Experiment.feasible then None
  else bisect ?pool ~lo ~hi result_at_hi probe

let min_feasible_ascending ?(pool = Pool.serial) ~lo ~hi probe =
  if lo > hi then invalid_arg "Min_space.min_feasible_ascending: empty range";
  let jobs = Pool.jobs pool in
  (* Gallop up from [lo] in doubling steps, [jobs] steps per round,
     until the first feasible size; then bisect the last step.
     Invariant: everything below [floor] is known infeasible. *)
  let rec gallop floor step =
    let rec sizes step k =
      let n = floor + step - 1 in
      if k = 0 then []
      else if n >= hi then [ hi ]
      else n :: sizes (2 * step) (k - 1)
    in
    let results = Pool.map pool (fun n -> (n, probe n)) (sizes step jobs) in
    let rec scan floor = function
      | [] -> if floor > hi then None else gallop floor (step lsl jobs)
      | (n, r) :: _ when r.Experiment.feasible ->
        bisect ~pool ~lo:floor ~hi:n r probe
      | (n, _) :: rest -> scan (n + 1) rest
    in
    scan floor results
  in
  gallop lo 1

(* Every probe halts at its first kill: one kill already makes it
   infeasible, and a feasible probe never halts, so the results the
   searches return are full runs. *)
let probe ~run cfg kind =
  run { cfg with Experiment.kind; stop_at_kill = true }

let max_fw_blocks = 16384

let min_fw ?pool ?(run = Experiment.run) cfg =
  let probe_fw n = probe ~run cfg (Experiment.Firewall n) in
  (* A generous run's peak occupancy brackets the answer: the log can
     never need fewer blocks than it ever simultaneously occupied.
     The bracket's last probe is clamped to [max_fw_blocks]. *)
  let rec bracket lo size =
    let r = probe_fw size in
    if r.Experiment.feasible then
      match r.Experiment.fw_stats with
      | Some s ->
        let peak = s.El_core.Fw_manager.peak_occupancy in
        (* The paper's k-block gap must stay free on top of the peak. *)
        (max 4 (peak - 2), min max_fw_blocks (peak + 8))
      | None ->
        (* A merged sharded result carries no per-plant stats: bracket
           by the sizes probed instead. *)
        (lo, size)
    else if size >= max_fw_blocks then
      failwith "Min_space.min_fw: workload needs >16384 blocks"
    else bracket (size + 1) (min max_fw_blocks (size * 4))
  in
  let lo, hi = bracket 4 512 in
  match min_feasible ?pool ~lo ~hi probe_fw with
  | Some best -> best
  | None -> failwith "Min_space.min_fw: bracketing failed"

let min_el_last_gen ?pool ?(run = Experiment.run) cfg ~make_policy ~leading ~hi
    =
  let probe_el n =
    probe ~run cfg
      (Experiment.Ephemeral (make_policy (Array.append leading [| n |])))
  in
  min_feasible ?pool ~lo:(Params.head_tail_gap + 1) ~hi probe_el

let min_el_two_gen ?pool ?(run = Experiment.run) cfg ~make_policy
    ~g0_candidates ~hi =
  let lo = Params.head_tail_gap + 1 in
  (* The best split so far ranks by total, then toward a larger first
     generation: it absorbs more records before they are forwarded, so
     at equal total space it costs less bandwidth (and matches the
     paper's choice of 18+16 over 16+18).  A candidate [g0] can only
     win with a second generation of at most [cap] blocks, so its
     search stops there; feasibility being monotone, that search finds
     the candidate's own minimum whenever it is at most [cap].  The
     search climbs from the floor: a size far below the minimum is
     killed within moments and halts, so most probes are cheap and
     only a few are full runs.  With a pool, the jobs run inside each
     candidate's search. *)
  let consider best g0 =
    let cap =
      match best with
      | None -> hi
      | Some ((sizes : int array), _) ->
        let total = sizes.(0) + sizes.(1) in
        min hi (if g0 > sizes.(0) then total - g0 else total - g0 - 1)
    in
    if cap < lo then best
    else
      let probe_el g1 =
        probe ~run cfg (Experiment.Ephemeral (make_policy [| g0; g1 |]))
      in
      match min_feasible_ascending ?pool ~lo ~hi:cap probe_el with
      | Some (g1, result) -> Some ([| g0; g1 |], result)
      | None -> best
  in
  List.fold_left consider None g0_candidates

let runtime_scale cfg runtime = { cfg with Experiment.runtime = runtime }
