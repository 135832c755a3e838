(** Minimum-disk-space search.

    The paper obtained its space figures by re-running simulations with
    less and less disk space "until we observed transactions being
    killed" (§4); the reported figure is the smallest configuration
    that kills nobody.  This module automates that procedure: a
    configuration is {e feasible} when the run finishes with no kills,
    no forced evictions and no overload, and feasibility is monotone
    in the log size (more space never hurts), so the boundary can be
    searched.

    The searches simulate only what decides their answer:

    - Every probe runs with [Experiment.config.stop_at_kill]: the
      engine halts at the first kill, which already makes the probe
      infeasible.  A feasible probe never halts, so every result
      returned here is the same full run as without the flag.
    - {!min_el_two_gen} prunes by the best total found so far: a
      first-generation candidate is searched only up to the largest
      second generation that could still win, and skipped when even
      the smallest could not.  Each candidate is searched from below
      ({!min_feasible_ascending}): sizes far under the minimum are
      killed early and halt, so most probes are short and only a
      few run in full.

    Monotone feasibility is what makes all of this exact: the capped
    search finds a candidate's own minimum whenever that minimum is
    under the cap, in whichever direction it searches, so the pruned
    search returns the unpruned one's answer.

    Two search modes share every entry point, selected by the
    optional [pool]:

    - {e binary search} (no [pool], or [Pool.jobs pool = 1]): the
      classic halving loop, one probe at a time — the historical
      serial path, unchanged.
    - {e speculative bracket} ([Pool.jobs pool > 1]): each round
      probes up to [jobs] evenly spaced candidates of the current
      bracket concurrently on the pool, then narrows the bracket as
      if the probes had been answered in ascending order.  Because
      feasibility is monotone and probes are deterministic, the mode
      returns {e exactly} the same minimum (and the same probe result
      for it) as the serial binary search — pinned by a regression
      test on the Figure 4 endpoints in [test/test_par.ml]. *)

open El_model

val min_feasible :
  ?pool:El_par.Pool.t ->
  lo:int ->
  hi:int ->
  (int -> Experiment.result) ->
  (int * Experiment.result) option
(** [min_feasible ~lo ~hi probe] is the smallest [n] in [lo, hi]
    whose probe is feasible, with that probe's result; [None] if even
    [hi] is infeasible.  Assumes monotone feasibility.  With a
    [?pool] of more than one job, probes several candidates per round
    (speculative bracket mode) — same answer, fewer rounds. *)

val min_feasible_ascending :
  ?pool:El_par.Pool.t ->
  lo:int ->
  hi:int ->
  (int -> Experiment.result) ->
  (int * Experiment.result) option
(** Same answer as {!min_feasible}, searched from below: probes
    [lo], [lo + 2], [lo + 6], ... (steps doubling, the last clamped
    to [hi]) up to the first feasible size, then binary-searches the
    last step.  It costs about as many probes as {!min_feasible} but
    fewer feasible ones, which is cheaper when infeasible probes stop
    early ({!Experiment.config.stop_at_kill}); [None] only after [hi]
    itself was probed infeasible.  With a [?pool] of [jobs] workers
    each round probes the next [jobs] steps at once and the final
    step is searched in bracket mode — the answer and its result do
    not depend on [jobs]. *)

val min_fw :
  ?pool:El_par.Pool.t ->
  ?run:(Experiment.config -> Experiment.result) ->
  Experiment.config ->
  int * Experiment.result
(** Minimum single-log size for the firewall scheme under the given
    workload (the [kind] field of the config is ignored).  Uses a
    generous sizing run to bracket the search, then {!min_feasible}
    (bracket mode when [pool] has jobs).  [run] (default
    {!Experiment.run}) executes each probe — the sharded CLI injects
    [El_shard.Shard_group.run_global] here, since this library cannot
    depend on the shard layer.  The bracket probes 512, 2048, 8192 and
    then 16384 blocks, and the first feasible one's peak occupancy
    narrows the search; a merged sharded result carries no FW stats,
    so there the search runs between the last infeasible and the
    first feasible bracket size.  Raises [Failure] if no size up to
    16384 blocks suffices. *)

val min_el_last_gen :
  ?pool:El_par.Pool.t ->
  ?run:(Experiment.config -> Experiment.result) ->
  Experiment.config ->
  make_policy:(int array -> El_core.Policy.t) ->
  leading:int array ->
  hi:int ->
  (int * Experiment.result) option
(** [min_el_last_gen cfg ~make_policy ~leading ~hi] finds the smallest
    last-generation size such that [make_policy (leading @ [n])] is
    feasible, searching n in [gap+1, hi] (bracket mode when [pool]
    has jobs). *)

val min_el_two_gen :
  ?pool:El_par.Pool.t ->
  ?run:(Experiment.config -> Experiment.result) ->
  Experiment.config ->
  make_policy:(int array -> El_core.Policy.t) ->
  g0_candidates:int list ->
  hi:int ->
  (int array * Experiment.result) option
(** Minimises total blocks over two-generation configurations,
    trying each first-generation size in [g0_candidates] in order and
    searching the second in [gap+1, hi].  At equal totals the larger
    first generation wins, and among equal splits the earlier
    candidate.  Once a best split is known, a candidate [g0] is
    searched only up to [best_total - g0] ([- 1] more when [g0] is not
    larger than the best's first generation) and skipped when that cap
    is below [gap+1]; the answer is the unpruned search's.  Each
    candidate is searched with {!min_feasible_ascending}.  With a
    [?pool], the jobs run inside each candidate's search, so the
    winner is independent of the job count.
    Returns the best [sizes] found and its run result. *)

val runtime_scale : Experiment.config -> Time.t -> Experiment.config
(** Shortens (or lengthens) a config's runtime — used by tests and
    quick modes; exposed here so callers scale consistently. *)
