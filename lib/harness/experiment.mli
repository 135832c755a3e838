(** One complete simulation run: engine + disks + log manager +
    workload generator, wired together and measured.

    This reproduces the simulator of §3: the caller chooses the log
    manager (EL with a policy, or the FW baseline), the transaction
    mix, the arrival rate, the flush array (drives × transfer time)
    and the runtime; {!run} executes the simulation and returns every
    statistic the paper's evaluation reports. *)

open El_model

(** The manager inside a plant ({!instance}).  Declared first, so an
    unannotated [Hybrid sizes] still means the {!manager_kind}. *)
type manager =
  | El of El_core.El_manager.t
  | Fw of El_core.Fw_manager.t
  | Hybrid of El_core.Hybrid_manager.t

type manager_kind =
  | Ephemeral of El_core.Policy.t
  | Firewall of int  (** log size in blocks *)
  | Hybrid of int array  (** §6 EL–FW hybrid, queue sizes in blocks *)

(** Where the log's durable bytes live. *)
type backend =
  | Sim  (** no store: durability is simulated, as in the original model *)
  | Mem_store
      (** an {!El_store.Backend.mem} image — real serialization and
          scan, no syscalls; fsync barriers are counted no-ops *)
  | File_store of string
      (** a real [disk.img] under the given directory (a fresh
          [Filename.temp_file] per prepared run), written with
          pwrite + fsync *)

type config = {
  kind : manager_kind;
  mix : El_workload.Mix.t;
  arrival_rate : float;  (** transactions per second (paper: 100) *)
  arrival_process : El_workload.Generator.arrival_process;
      (** [Deterministic] (paper), [Poisson], or ON/OFF [Burst] *)
  draw : El_workload.Draw.t;
      (** oid-drawing policy: [Uniform] (paper) or [Zipfian] hot-key
          skew.  Zipfian draws can collide with an active writer, in
          which case the drawing transaction aborts and retries under
          the budget below. *)
  lifetime : El_workload.Lifetime.t;
      (** per-transaction duration scaling: [Fixed] (paper) or
          [Pareto] long tails *)
  max_retries : int;
      (** contention retry budget per logical transaction (0: a
          contended draw just aborts) *)
  retry_backoff : Time.t;
      (** base of the seeded exponential backoff between contention
          retries *)
  runtime : Time.t;  (** simulated span (paper: 500 s) *)
  flush_drives : int;  (** paper: 10 *)
  flush_transfer : Time.t;  (** paper: 25 ms (45 ms in the scarce test) *)
  flush_scheduling : El_disk.Flush_array.scheduling;
      (** [Nearest] (paper) or [Fifo] (ablation) *)
  flush_impl : El_disk.Flush_array.implementation;
      (** [Indexed] (default, O(log B) picks) or [Reference] (the
          retained linear scan, for differential testing and as the
          benchmark baseline) *)
  num_objects : int;  (** paper: 10^7 *)
  seed : int;
  abort_fraction : float;  (** 0 in the paper; >0 for fault injection *)
  observer : El_obs.Obs.config option;
      (** [Some cfg] turns on the observability layer (trace ring,
          metric registry, time-series sampler).  [None] — the default
          — leaves every hook a no-op, and either way the simulation's
          {!result} is identical: observers never schedule events or
          draw randomness. *)
  fault : El_fault.Fault_plan.t;
      (** Disk fault schedule ({!El_fault.Fault_plan.empty} by
          default).  The empty plan creates no injector at all, and an
          armed-but-inert plan (all rates zero, no windows, no
          degraded mode) resolves every op nominally — both produce
          results byte-identical to a fault-free run (pinned by a
          regression test).  A plan with [degraded = Some _] arms the
          load-shedding wrapper: once the flush backlog passes the
          threshold, arriving transactions are admitted and
          immediately shed (killed + aborted), counted in
          [result.killed] and in {!El_fault.Injector.sheds}.  A run
          that exhausts a device's spare sectors raises
          {!El_fault.Injector.Io_fatal} out of {!live.finish}. *)
  backend : backend;
      (** [Sim] by default.  With [Mem_store] or [File_store], every
          sealed log block and stable install is also serialized into
          an {!El_store.Log_store} image before completion hooks fire,
          so {!El_recovery.Recovery.recover_store} can replay it. *)
  pooling : bool;
      (** [true] (default) recycles ledger LOT/LTT entries and hybrid
          arena segments through free lists, so steady-state
          transaction churn allocates nothing.  [false] allocates
          fresh structures each time, for A/B allocation profiling.
          Results are byte-identical either way (pinned by a
          regression test). *)
  group_fsync : bool;
      (** [true] puts the store (when [backend] is not [Sim]) in
          {!El_store.Log_store.Grouped} sync mode: segments appended
          while the engine settles share one barrier instead of one
          each.  [false] (default) fsyncs every segment. *)
  stop_at_kill : bool;
      (** [true] halts the engine ({!El_sim.Engine.halt}) right after
          the first killed transaction, instead of simulating on to
          [runtime].  Such a run reports [feasible = false] and
          [killed >= 1]; every other counter in its {!result} is
          partial — it covers only the simulated span up to the kill
          (rates still divide by the full [runtime]).  A run that
          kills nobody never halts, so its result is the full run's,
          byte for byte.  [false] (default) always simulates to the
          end.  The minimum-space probes ({!Min_space}) set it: one
          kill already decides that a size is infeasible. *)
  shards : int;
      (** number of oid-range partitions, each with its own manager
          plant (1 — the default — is the solo path).  Both callers
          of {!build} read it: {!prepare} builds one plant with no
          router and rejects [shards > 1]; [El_shard.Shard_group] puts
          the plants behind its 2PC router. *)
}

val default_config : kind:manager_kind -> mix:El_workload.Mix.t -> config
(** The paper's standard setup: 100 TPS, 500 s, 10 drives × 25 ms,
    10^7 objects, seed 42, no aborts, no faults, uniform drawing,
    fixed lifetimes, no contention retries. *)

val apply_preset : config -> El_workload.Workload_preset.t -> config
(** Overwrites the traffic half of the config — mix, arrival process,
    draw, lifetime, retry budget and backoff — with the preset's,
    leaving the plant (kind, rate, runtime, drives, sizing, seed,
    observer, fault plan, backend) untouched. *)

type result = {
  total_blocks : int;  (** configured log size, all generations *)
  log_writes_per_gen : int array;
  log_writes_total : int;
  log_write_rate : float;  (** block writes per second, log only *)
  peak_memory_bytes : int;
  started : int;
  committed : int;
  aborted : int;
  killed : int;
  contention_aborts : int;
      (** aborts caused by a skewed draw hitting an active writer
          (also counted in [aborted]) *)
  contention_retries : int;
      (** relaunches scheduled after contention aborts (each retry is
          a fresh [started] transaction) *)
  evictions : int;
  overloaded : bool;  (** the run aborted with [Log_overloaded] *)
  feasible : bool;  (** no kills, no evictions, no overload *)
  updates_per_sec : float;
  flushes_completed : int;
  forced_flushes : int;
  flush_mean_distance : float;
  flush_backlog_peak : int;
  commit_latency_mean : float;  (** seconds, t₃→t₄ *)
  forwarded_records : int;
  recirculated_records : int;
  el_stats : El_core.El_manager.stats option;
  fw_stats : El_core.Fw_manager.stats option;
  hybrid_stats : El_core.Hybrid_manager.stats option;
  backend_name : string;  (** ["sim"], ["mem"] or ["file"] *)
  store_pwrites : int;  (** store write syscalls (0 under [Sim]) *)
  store_barriers : int;  (** fsync barriers issued (counted no-ops on mem) *)
  store_bytes_written : int;
  store_group_syncs : int;
      (** grouped-barrier waves actually issued (0 under [Sim] or
          [Immediate] sync) *)
}

val run : config -> result

(** A live, partially-wired simulation — for tests and examples that
    want to crash it mid-flight or inspect internals. *)
type live = {
  engine : El_sim.Engine.t;
  flush : El_disk.Flush_array.t;
  el : El_core.El_manager.t option;  (** when [kind] is [Ephemeral] *)
  fw : El_core.Fw_manager.t option;
  hybrid : El_core.Hybrid_manager.t option;
  obs : El_obs.Obs.t option;
      (** present iff the config's [observer] was set; hand it to
          {!El_obs.Export} after {!live.finish} *)
  fault : El_fault.Injector.t option;
      (** present iff the config's [fault] plan was non-empty; read
          its retry/remap/shed counters after {!live.finish} *)
  store : El_store.Log_store.t option;
      (** present iff the config's [backend] is not [Sim]; scan it
          (before {!dispose}) to recover the durable image *)
  finish : unit -> result;
      (** runs the simulation to [runtime] (from wherever the engine
          is now) and collects the result *)
}

val dispose : live -> unit
(** Closes the live run's store backend and deletes its image file, if
    any.  Callers of {!prepare} with a non-[Sim] backend must call
    this when done; {!run} and the crash runners do it themselves.
    Idempotent for [Sim] runs (a no-op). *)

val prepare :
  ?wrap_sink:(El_workload.Generator.sink -> El_workload.Generator.sink) ->
  ?checkpointing:El_core.Fw_manager.checkpointing ->
  config ->
  live
(** [wrap_sink] interposes an observer between the workload generator
    and the log manager (a tracer shadowing every logging call); it
    must forward each call to the sink it was given.  Defaults to
    doing nothing.  [checkpointing] gives a [Firewall] plant the
    checkpoints the paper's FW baseline omits (none by default; other
    kinds ignore it). *)

val run_with_crash :
  config -> crash_at:Time.t -> result * El_recovery.Recovery.result * El_recovery.Recovery.audit
(** Runs an EL simulation, captures a crash image at [crash_at],
    recovers from it and audits the outcome; then lets the simulation
    finish for the run statistics.  Raises [Invalid_argument] for a FW
    config (the paper's FW baseline has no recovery model) or if
    [crash_at] exceeds the runtime; raises [Failure] when the run
    overloads and stops before [crash_at] is reached (an adversarial
    scenario on an undersized log), since no crash image exists. *)

val run_with_crash_store :
  config ->
  crash_at:Time.t ->
  result
  * El_recovery.Recovery.result
  * El_recovery.Recovery.audit
  * El_recovery.Recovery.result option
(** Like {!run_with_crash}, but when the config has a store backend it
    also freezes the durable image at the crash instant
    ({!El_core.El_manager.persist_crash_mark}) and, after the run,
    replays it with {!El_recovery.Recovery.recover_store} — the fourth
    element, [None] under [Sim].  The store replay and the simulated
    recovery describe the same crash, so their recovered states must
    agree (pinned by the backend-equivalence tests). *)

(** {2 Plants — the one builder}

    A plant is one log manager with its store, stable database, flush
    array and workload-facing sink.  {!build} is the only place a
    simulated run's engine, observer hub, fault injector, stores,
    plants and generator are created: {!prepare} calls it for one
    plant and no router, [El_shard.Shard_group] for N plants behind
    its router, so a 1-shard group is the solo run by construction.
    [El_serve.Serve] builds its one plant with {!build_instance} over
    the store it attached. *)
type instance = {
  i_stable : El_disk.Stable_db.t;
  i_flush : El_disk.Flush_array.t;
  i_manager : manager;
  i_store : El_store.Log_store.t option;
  i_sink : El_workload.Generator.sink;
      (** the manager's calls, inside the degraded load-shedding layer
          when the fault plan arms one, inside the re-entry guard *)
  i_drain : unit -> unit;  (** the manager's [drain], guarded too *)
  i_set_on_kill : (El_model.Ids.Tid.t -> unit) -> unit;
      (** installs the kill callback on the manager and the shedding
          layer *)
}

exception Plant_reentered of string
(** Raised by [i_sink] or [i_drain] when a plant is entered while one
    of its own calls is on the stack (say, a kill hook calling back
    into the manager that killed); the message names the entry. *)

val build_instance :
  El_sim.Engine.t ->
  config ->
  ?obs:El_obs.Obs.t ->
  ?inj:El_fault.Injector.t ->
  ?store:El_store.Log_store.t ->
  ?checkpointing:El_core.Fw_manager.checkpointing ->
  num_objects:int ->
  unit ->
  instance
(** One plant on [engine], from the config's kind, flush and pooling
    fields, writing to [store] if given ([cfg.backend] is not read).
    [num_objects] sizes the stable database and flush array;
    [checkpointing] reaches a [Firewall] manager only (see {!prepare}). *)

type 'r build = {
  b_cfg : config;
  b_engine : El_sim.Engine.t;
  b_obs : El_obs.Obs.t option;  (** iff [cfg.observer] is set *)
  b_inj : El_fault.Injector.t option;
      (** iff [cfg.fault] is non-empty; one stream for every plant *)
  b_plants : instance array;
  b_generator : El_workload.Generator.t;
  b_router : 'r;
}

val build :
  config ->
  plants:int ->
  num_objects:int ->
  ?wrap_sink:(int -> El_workload.Generator.sink -> El_workload.Generator.sink) ->
  ?checkpointing:El_core.Fw_manager.checkpointing ->
  router:(El_workload.Generator.sink array -> 'r * El_workload.Generator.sink) ->
  on_kill:('r -> El_workload.Generator.t -> int -> El_model.Ids.Tid.t -> unit) ->
  unit ->
  'r build
(** Builds [plants] plants of [num_objects] objects, each with its own
    store as [cfg.backend] says.  [wrap_sink i] interposes on plant
    [i]'s sink; [router] takes the wrapped sinks and returns its state
    and the generator's sink.  A kill by plant [i] calls
    [on_kill router generator i tid], then halts the engine if
    [cfg.stop_at_kill] and the generator has counted a kill.
    [checkpointing] is {!build_instance}'s, for every plant.  An
    observer gets the time-series probes, plant probes prefixed
    [shard<i>.] when [plants > 1]. *)

val run_to_end : 'r build -> bool
(** Runs the engine to [cfg.runtime], syncs every store, finishes the
    observer; [true] if a manager overloaded and stopped the run. *)

val dispose_instance : instance -> unit
(** Closes the instance's store backend and removes its image file,
    if any. *)

val collect_instance :
  config ->
  generator:El_workload.Generator.t ->
  overloaded:bool ->
  instance ->
  result
(** Collects a {!result} from one plant plus the (possibly shared)
    generator — the workload counters are the generator's globals, the
    plant counters are this instance's own. *)
