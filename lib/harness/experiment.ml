open El_model
module Engine = El_sim.Engine
module Generator = El_workload.Generator
module Flush_array = El_disk.Flush_array
module Stable_db = El_disk.Stable_db
module El_manager = El_core.El_manager
module Fw_manager = El_core.Fw_manager
module Hybrid_manager = El_core.Hybrid_manager

(* The manager inside a plant, as one variant so the plant record has
   no per-kind fields.  Declared before [manager_kind], whose
   [Hybrid] therefore stays the default reading of an unannotated
   [Hybrid sizes]. *)
type manager =
  | El of El_manager.t
  | Fw of Fw_manager.t
  | Hybrid of Hybrid_manager.t

type manager_kind =
  | Ephemeral of El_core.Policy.t
  | Firewall of int
  | Hybrid of int array

type backend = Sim | Mem_store | File_store of string

type config = {
  kind : manager_kind;
  mix : El_workload.Mix.t;
  arrival_rate : float;
  arrival_process : Generator.arrival_process;
  draw : El_workload.Draw.t;
  lifetime : El_workload.Lifetime.t;
  max_retries : int;
  retry_backoff : Time.t;
  runtime : Time.t;
  flush_drives : int;
  flush_transfer : Time.t;
  flush_scheduling : Flush_array.scheduling;
  flush_impl : Flush_array.implementation;
  num_objects : int;
  seed : int;
  abort_fraction : float;
  observer : El_obs.Obs.config option;
  fault : El_fault.Fault_plan.t;
  backend : backend;
  pooling : bool;
      (* recycle ledger entries / arena segments instead of
         allocating; behaviour-identical, off for A/B profiling *)
  group_fsync : bool;  (* batch store barriers per settle wave *)
  stop_at_kill : bool;
      (* halt the engine at the first kill: the feasibility probes'
         setting, since one kill decides the answer *)
  shards : int;
      (* oid-range partitions, one manager plant each; 1 = the solo
         path.  [prepare] itself only accepts 1 — sharded runs go
         through El_shard.Shard_group, which carries this config *)
}

let default_config ~kind ~mix =
  {
    kind;
    mix;
    arrival_rate = 100.0;
    arrival_process = Generator.Deterministic;
    draw = El_workload.Draw.Uniform;
    lifetime = El_workload.Lifetime.Fixed;
    max_retries = 0;
    retry_backoff = Time.of_ms 20;
    runtime = Time.of_sec 500;
    flush_drives = 10;
    flush_transfer = Time.of_ms 25;
    flush_scheduling = Flush_array.Nearest;
    flush_impl = Flush_array.Indexed;
    num_objects = Params.num_objects;
    seed = 42;
    abort_fraction = 0.0;
    observer = None;
    fault = El_fault.Fault_plan.empty;
    backend = Sim;
    pooling = true;
    group_fsync = false;
    stop_at_kill = false;
    shards = 1;
  }

(* A preset replaces the whole traffic description but not the plant
   (drives, log sizing, runtime, seed, backend) — the rate stays the
   caller's so sweeps can push any scenario toward its own knee. *)
let apply_preset cfg (p : El_workload.Workload_preset.t) =
  {
    cfg with
    mix = p.El_workload.Workload_preset.mix;
    arrival_process = p.El_workload.Workload_preset.arrival;
    draw = p.El_workload.Workload_preset.draw;
    lifetime = p.El_workload.Workload_preset.lifetime;
    max_retries = p.El_workload.Workload_preset.max_retries;
    retry_backoff = p.El_workload.Workload_preset.retry_backoff;
  }

type result = {
  total_blocks : int;
  log_writes_per_gen : int array;
  log_writes_total : int;
  log_write_rate : float;
  peak_memory_bytes : int;
  started : int;
  committed : int;
  aborted : int;
  killed : int;
  contention_aborts : int;
  contention_retries : int;
  evictions : int;
  overloaded : bool;
  feasible : bool;
  updates_per_sec : float;
  flushes_completed : int;
  forced_flushes : int;
  flush_mean_distance : float;
  flush_backlog_peak : int;
  commit_latency_mean : float;
  forwarded_records : int;
  recirculated_records : int;
  el_stats : El_manager.stats option;
  fw_stats : Fw_manager.stats option;
  hybrid_stats : Hybrid_manager.stats option;
  backend_name : string;
  store_pwrites : int;
  store_barriers : int;
  store_bytes_written : int;
  store_group_syncs : int;
}

(* One log-manager plant — everything downstream of the workload sink,
   with its manager behind one erased face.  Every simulated run, solo
   or sharded, builds its plants through [build_instance] inside
   [build]; the server builds its one plant with [build_instance]
   over the store it attached. *)
type instance = {
  i_stable : Stable_db.t;
  i_flush : Flush_array.t;
  i_manager : manager;
  i_store : El_store.Log_store.t option;
  i_sink : Generator.sink;
  i_drain : unit -> unit;
  i_set_on_kill : (Ids.Tid.t -> unit) -> unit;
}

type live = {
  engine : Engine.t;
  flush : Flush_array.t;
  el : El_manager.t option;
  fw : Fw_manager.t option;
  hybrid : Hybrid_manager.t option;
  obs : El_obs.Obs.t option;
  fault : El_fault.Injector.t option;
  store : El_store.Log_store.t option;
  finish : unit -> result;
}

let dispose_store = function
  | None -> ()
  | Some s ->
    let b = El_store.Log_store.backend s in
    let path = El_store.Backend.path b in
    El_store.Backend.close b;
    (match path with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ())

let dispose_instance i = dispose_store i.i_store
let dispose live = dispose_store live.store

let collect_instance cfg ~generator ~overloaded (inst : instance) =
  let ( (total_blocks, per_gen, mem_peak, evictions, forwarded, recirculated),
        el_stats, fw_stats, hybrid_stats ) =
    match inst.i_manager with
    | El m ->
      let s = El_manager.stats m in
      ( ( Array.fold_left ( + ) 0 s.El_manager.generation_sizes,
          s.El_manager.log_writes_per_gen,
          s.El_manager.peak_memory_bytes,
          s.El_manager.evictions,
          s.El_manager.forwarded_records,
          s.El_manager.recirculated_records ),
        Some s, None, None )
    | Fw m ->
      let s = Fw_manager.stats m in
      ( ( s.Fw_manager.size_blocks,
          [| s.Fw_manager.log_writes |],
          s.Fw_manager.peak_memory_bytes,
          0, 0, 0 ),
        None, Some s, None )
    | Hybrid m ->
      let s = Hybrid_manager.stats m in
      ( ( Array.fold_left ( + ) 0 s.Hybrid_manager.queue_sizes,
          s.Hybrid_manager.log_writes_per_queue,
          s.Hybrid_manager.peak_memory_bytes,
          0,
          s.Hybrid_manager.regenerated_records,
          0 ),
        None, None, Some s )
  in
  let log_writes_total = Array.fold_left ( + ) 0 per_gen in
  let seconds = Time.to_sec_f cfg.runtime in
  let killed = Generator.killed generator in
  let store_count f =
    match inst.i_store with
    | None -> 0
    | Some s -> f (El_store.Backend.counters (El_store.Log_store.backend s))
  in
  {
    total_blocks;
    log_writes_per_gen = per_gen;
    log_writes_total;
    log_write_rate = float_of_int log_writes_total /. seconds;
    peak_memory_bytes = mem_peak;
    started = Generator.started generator;
    committed = Generator.committed generator;
    aborted = Generator.aborted generator;
    killed;
    contention_aborts = Generator.contention_aborts generator;
    contention_retries = Generator.retries generator;
    evictions;
    overloaded;
    feasible = (not overloaded) && killed = 0 && evictions = 0;
    updates_per_sec =
      float_of_int (Generator.data_records_written generator) /. seconds;
    flushes_completed = Flush_array.flushes_completed inst.i_flush;
    forced_flushes = Flush_array.forced_flushes inst.i_flush;
    flush_mean_distance = Flush_array.mean_distance inst.i_flush;
    flush_backlog_peak = Flush_array.peak_backlog inst.i_flush;
    commit_latency_mean =
      El_metrics.Running_stat.mean (Generator.commit_latency generator);
    forwarded_records = forwarded;
    recirculated_records = recirculated;
    el_stats;
    fw_stats;
    hybrid_stats;
    backend_name =
      (match inst.i_store with
      | None -> "sim"
      | Some s -> El_store.Backend.name (El_store.Log_store.backend s));
    store_pwrites = store_count (fun c -> c.El_store.Backend.pwrites);
    store_barriers = store_count (fun c -> c.El_store.Backend.barriers);
    store_bytes_written =
      store_count (fun c -> c.El_store.Backend.bytes_written);
    store_group_syncs =
      (match inst.i_store with
      | None -> 0
      | Some s -> El_store.Log_store.group_syncs s);
  }

exception Plant_reentered of string

(* One busy flag per plant, around everything that enters it: a call
   that arrives while one of the plant's own calls is still on the
   stack raises here, where it enters, instead of corrupting the
   manager's state and failing at some later invariant.  A call that
   raises (a protocol misuse the server reports) leaves the plant
   idle again. *)
let guard (sink : Generator.sink) drain =
  let busy = ref false in
  let enter what =
    if !busy then
      raise
        (Plant_reentered
           (what ^ " entered a plant while one of its own calls is running"));
    busy := true
  in
  let leave_raising e =
    busy := false;
    Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())
  in
  ( {
      Generator.begin_tx =
        (fun ~tid ~expected_duration ->
          enter "begin_tx";
          try sink.Generator.begin_tx ~tid ~expected_duration; busy := false
          with e -> leave_raising e);
      write_data =
        (fun ~tid ~oid ~version ~size ->
          enter "write_data";
          try sink.Generator.write_data ~tid ~oid ~version ~size; busy := false
          with e -> leave_raising e);
      request_commit =
        (fun ~tid ~on_ack ->
          enter "request_commit";
          try sink.Generator.request_commit ~tid ~on_ack; busy := false
          with e -> leave_raising e);
      request_abort =
        (fun ~tid ->
          enter "request_abort";
          try sink.Generator.request_abort ~tid; busy := false
          with e -> leave_raising e);
    },
    fun () ->
      enter "drain";
      try drain (); busy := false with e -> leave_raising e )

(* The calls every manager shares, so one function erases all three
   into a plant's sink, drain and kill-hook setter. *)
module type Manager = sig
  type t

  val begin_tx : t -> tid:Ids.Tid.t -> expected_duration:Time.t -> unit

  val write_data :
    t -> tid:Ids.Tid.t -> oid:Ids.Oid.t -> version:int -> size:int -> unit

  val request_commit : t -> tid:Ids.Tid.t -> on_ack:(Time.t -> unit) -> unit
  val request_abort : t -> tid:Ids.Tid.t -> unit
  val drain : t -> unit
  val set_on_kill : t -> (Ids.Tid.t -> unit) -> unit
end

let face (type m) (module M : Manager with type t = m) (m : m) =
  ( {
      Generator.begin_tx =
        (fun ~tid ~expected_duration -> M.begin_tx m ~tid ~expected_duration);
      write_data =
        (fun ~tid ~oid ~version ~size -> M.write_data m ~tid ~oid ~version ~size);
      request_commit = (fun ~tid ~on_ack -> M.request_commit m ~tid ~on_ack);
      request_abort = (fun ~tid -> M.request_abort m ~tid);
    },
    (fun () -> M.drain m),
    M.set_on_kill m )

(* The durable store a config asks for.  [Log_store.create]
   truncates, so every built run starts from a blank image; the file
   variant gets a unique image inside the caller's directory so
   parallel sweep slices never clobber one another. *)
let make_store cfg =
  let sync_mode =
    if cfg.group_fsync then El_store.Log_store.Grouped
    else El_store.Log_store.Immediate
  in
  match cfg.backend with
  | Sim -> None
  | Mem_store ->
    Some (El_store.Log_store.create ~sync_mode (El_store.Backend.mem ()))
  | File_store dir ->
    let path = Filename.temp_file ~temp_dir:dir "el_store" ".img" in
    Some (El_store.Log_store.create ~sync_mode (El_store.Backend.file ~path))

let build_instance engine (cfg : config) ?obs ?inj ?store ?checkpointing
    ~num_objects () =
  (match (obs, store) with
  | Some o, Some s ->
    let pwrites = El_obs.Obs.counter o "store.pwrites" in
    let bytes = El_obs.Obs.counter o "store.bytes" in
    let barriers = El_obs.Obs.counter o "store.barriers" in
    El_store.Backend.set_tap
      (El_store.Log_store.backend s)
      (Some
         (function
           | El_store.Backend.Pwrite n ->
             El_metrics.Counter.add pwrites 1;
             El_metrics.Counter.add bytes n
           | El_store.Backend.Pread _ -> ()
           | El_store.Backend.Barrier -> El_metrics.Counter.add barriers 1))
  | _ -> ());
  let stable = Stable_db.create ~num_objects in
  let flush =
    Flush_array.create engine ~drives:cfg.flush_drives
      ~transfer_time:cfg.flush_transfer ~num_objects
      ~scheduling:cfg.flush_scheduling ~implementation:cfg.flush_impl ?obs
      ?fault:inj ?store ()
  in
  let manager : manager =
    match cfg.kind with
    | Ephemeral policy ->
      El
        (El_manager.create engine ~policy ~flush ~stable ~pooled:cfg.pooling
           ?obs ?fault:inj ?store ())
    | Firewall size_blocks ->
      Fw
        (Fw_manager.create engine ~size_blocks ?checkpointing ?obs ?fault:inj
           ?store ())
    | Hybrid queue_sizes ->
      Hybrid
        (Hybrid_manager.create engine ~queue_sizes ~flush ~stable
           ~pooled:cfg.pooling ?obs ?fault:inj ?store ())
  in
  let sink, drain, set_on_kill =
    match manager with
    | El m -> face (module El_manager) m
    | Fw m -> face (module Fw_manager) m
    | Hybrid m -> face (module Hybrid_manager) m
  in
  (* Degraded mode: under a fault storm the flush backlog grows
     without bound; past [shed_backlog] newly arriving transactions
     are shed — admitted, then immediately killed and aborted — so
     the system degrades instead of diverging (§5's stress shedding).
     The wrapper sits inside the caller's sink wrappers so external
     oracles see the begin and, through the composite kill, the shed
     itself. *)
  let shed_kill = ref (fun (_ : Ids.Tid.t) -> ()) in
  let sink =
    match inj with
    | Some i -> (
      match (El_fault.Injector.plan i).El_fault.Fault_plan.degraded with
      | None -> sink
      | Some d ->
        let inner = sink in
        {
          inner with
          Generator.begin_tx =
            (fun ~tid ~expected_duration ->
              inner.Generator.begin_tx ~tid ~expected_duration;
              let backlog = Flush_array.pending flush in
              if backlog >= d.El_fault.Fault_plan.shed_backlog then begin
                El_fault.Injector.count_shed i;
                (match obs with
                | None -> ()
                | Some o ->
                  El_obs.Obs.emit o El_obs.Event.Harness
                    (El_obs.Event.Shed
                       { tid = Ids.Tid.to_int tid; backlog }));
                !shed_kill tid;
                inner.Generator.request_abort ~tid
              end);
        })
    | None -> sink
  in
  let sink, drain = guard sink drain in
  {
    i_stable = stable;
    i_flush = flush;
    i_manager = manager;
    i_store = store;
    i_sink = sink;
    i_drain = drain;
    i_set_on_kill =
      (fun f ->
        shed_kill := f;
        set_on_kill f);
  }

type 'r build = {
  b_cfg : config;
  b_engine : Engine.t;
  b_obs : El_obs.Obs.t option;
  b_inj : El_fault.Injector.t option;
  b_plants : instance array;
  b_generator : Generator.t;
  b_router : 'r;
}

(* Time-series probes: the backlog/occupancy/memory curves of §4.  All
   read-only, sampled at dispatch boundaries by the installed
   observer, so the simulation itself is untouched.  Plant probes
   carry a [shard<i>.] prefix when there is more than one plant; the
   registration order keeps a one-plant run's columns as they always
   were. *)
let add_probes o generator plants =
  let name i n =
    if Array.length plants = 1 then n else Printf.sprintf "shard%d.%s" i n
  in
  let probe i n read =
    El_obs.Obs.add_probe o ~name:(name i n) (fun () -> float_of_int (read ()))
  in
  Array.iteri
    (fun i p -> probe i "flush_backlog" (fun () -> Flush_array.pending p.i_flush))
    plants;
  El_obs.Obs.add_probe o ~name:"active_tx" (fun () ->
      float_of_int (Generator.active generator));
  El_obs.Obs.add_probe o ~name:"awaiting_ack" (fun () ->
      float_of_int (Generator.awaiting_ack generator));
  Array.iteri
    (fun i p ->
      match p.i_manager with
      | El m ->
        Array.iteri
          (fun g _ ->
            probe i (Printf.sprintf "gen%d_occupancy" g) (fun () ->
                (El_manager.occupied_blocks m).(g)))
          (El_manager.occupied_blocks m);
        probe i "live_memory_bytes" (fun () ->
            El_core.Ledger.memory_bytes (El_manager.ledger m))
      | Fw m ->
        probe i "fw_occupancy" (fun () ->
            (Fw_manager.audit_view m).Fw_manager.ra_occupied);
        probe i "live_memory_bytes" (fun () ->
            (Fw_manager.stats m).Fw_manager.current_memory_bytes)
      | Hybrid m ->
        Array.iteri
          (fun q _ ->
            probe i (Printf.sprintf "queue%d_occupancy" q) (fun () ->
                (Hybrid_manager.audit_view m).(q).Hybrid_manager.qa_occupied))
          (Hybrid_manager.audit_view m);
        probe i "live_memory_bytes" (fun () ->
            (Hybrid_manager.stats m).Hybrid_manager.current_memory_bytes))
    plants

let build cfg ~plants ~num_objects ?(wrap_sink = fun _ sink -> sink)
    ?checkpointing ~router ~on_kill () =
  let engine = Engine.create ~seed:cfg.seed () in
  let obs =
    Option.map (fun c -> El_obs.Obs.create ~config:c engine) cfg.observer
  in
  (* [None] for the empty plan: every component then takes its
     fault-free path, so a default config is byte-identical to a build
     without fault injection. *)
  let inj = El_fault.Injector.create cfg.fault in
  let insts =
    Array.init plants (fun _ ->
        build_instance engine cfg ?obs ?inj ?store:(make_store cfg)
          ?checkpointing ~num_objects ())
  in
  let r, sink =
    router (Array.mapi (fun i inst -> wrap_sink i inst.i_sink) insts)
  in
  (* Contention hooks feed the trace ring only — observability, never
     control flow, so on/off observer identity holds under skew too. *)
  let on_contention ~tid ~oid ~attempt =
    match obs with
    | None -> ()
    | Some o ->
      El_obs.Obs.emit o El_obs.Event.Harness
        (El_obs.Event.Contention
           { tid = Ids.Tid.to_int tid; oid = Ids.Oid.to_int oid; attempt })
  in
  let on_retry ~tid ~attempt =
    match obs with
    | None -> ()
    | Some o ->
      El_obs.Obs.emit o El_obs.Event.Harness
        (El_obs.Event.Retry { tid = Ids.Tid.to_int tid; attempt })
  in
  let generator =
    Generator.create engine ~sink ~mix:cfg.mix ~arrival_rate:cfg.arrival_rate
      ~runtime:cfg.runtime ~arrival_process:cfg.arrival_process
      ~abort_fraction:cfg.abort_fraction ~draw:cfg.draw ~lifetime:cfg.lifetime
      ~max_retries:cfg.max_retries ~retry_backoff:cfg.retry_backoff
      ~on_contention ~on_retry ~num_objects:cfg.num_objects ()
  in
  Array.iteri
    (fun i inst ->
      inst.i_set_on_kill (fun tid ->
          on_kill r generator i tid;
          (* Halt only once the generator counts a kill: a plant kill
             the router absorbs (a blocked 2PC branch) leaves the run
             feasible, so it must run on to the end. *)
          if cfg.stop_at_kill && Generator.killed generator > 0 then
            Engine.halt engine))
    insts;
  (match obs with
  | None -> ()
  | Some o ->
    add_probes o generator insts;
    El_obs.Obs.install o);
  {
    b_cfg = cfg;
    b_engine = engine;
    b_obs = obs;
    b_inj = inj;
    b_plants = insts;
    b_generator = generator;
    b_router = r;
  }

let run_to_end b =
  let overloaded =
    try
      Engine.run b.b_engine ~until:b.b_cfg.runtime;
      false
    with El_manager.Log_overloaded _ -> true
  in
  (* Under Grouped sync a tail of appended-but-unsynced segments can
     remain; one final barrier makes the end-of-run image durable
     (no-op when clean or Immediate). *)
  Array.iter
    (fun p -> Option.iter El_store.Log_store.sync p.i_store)
    b.b_plants;
  Option.iter El_obs.Obs.finish b.b_obs;
  overloaded

let prepare ?(wrap_sink = fun sink -> sink) ?checkpointing cfg =
  if cfg.shards <> 1 then
    invalid_arg
      "Experiment.prepare: shards > 1 runs go through El_shard.Shard_group";
  let b =
    build cfg ~plants:1 ~num_objects:cfg.num_objects
      ~wrap_sink:(fun _ sink -> wrap_sink sink)
      ?checkpointing ~router:(fun sinks -> ((), sinks.(0)))
      ~on_kill:(fun () generator _ tid -> Generator.kill generator tid)
      ()
  in
  let inst = b.b_plants.(0) in
  {
    engine = b.b_engine;
    flush = inst.i_flush;
    el = (match inst.i_manager with El m -> Some m | _ -> None);
    fw = (match inst.i_manager with Fw m -> Some m | _ -> None);
    hybrid = (match inst.i_manager with Hybrid m -> Some m | _ -> None);
    obs = b.b_obs;
    fault = b.b_inj;
    store = inst.i_store;
    finish =
      (fun () ->
        let overloaded = run_to_end b in
        collect_instance cfg ~generator:b.b_generator ~overloaded inst);
  }

let run cfg =
  let live = prepare cfg in
  Fun.protect ~finally:(fun () -> dispose live) live.finish

let run_with_crash_store cfg ~crash_at =
  (match cfg.kind with
  | Firewall _ | Hybrid _ ->
    invalid_arg "Experiment.run_with_crash: FW has no recovery model"
  | Ephemeral _ -> ());
  if Time.(crash_at > cfg.runtime) then
    invalid_arg "Experiment.run_with_crash: crash after end of run";
  let live = prepare cfg in
  Fun.protect
    ~finally:(fun () -> dispose live)
    (fun () ->
      let manager = Option.get live.el in
      let holder = ref None in
      Engine.schedule_at live.engine crash_at (fun () ->
          (* Capture the in-memory image first, then freeze the store:
             both read the same channel state, so they describe the
             same crash instant. *)
          let image = El_recovery.Recovery.crash live.engine manager in
          let mark = El_manager.persist_crash_mark manager in
          holder := Some (image, mark));
      let result = live.finish () in
      match !holder with
      | None ->
        (* The engine stopped before the crash instant — only an
           overload can end a run early, so the crash point was never
           reached.  An adversarial scenario on an undersized log is
           the usual way here. *)
        failwith
          (Printf.sprintf
             "Experiment.run_with_crash: the run %s before the crash \
              instant; crash earlier or enlarge the log"
             (if result.overloaded then "overloaded and stopped"
              else "ended"))
      | Some (image, mark) ->
        let recovery = El_recovery.Recovery.recover ?obs:live.obs image in
        let audit = El_recovery.Recovery.audit image recovery in
        let store_recovery =
          match (live.store, mark) with
          | Some s, Some m ->
            Some
              (El_recovery.Recovery.recover_store ~upto:m
                 ~num_objects:cfg.num_objects
                 (El_store.Log_store.backend s))
          | _ -> None
        in
        (result, recovery, audit, store_recovery))

let run_with_crash cfg ~crash_at =
  let result, recovery, audit, _ = run_with_crash_store cfg ~crash_at in
  (result, recovery, audit)
