(* sharded_2pc: the quick shards headline — 4 shards, 10^6 objects,
   1000 tx/s, 60 s simulated, 128 drives, generations [|320; 256|].
   The only workload that exercises lib/shard: the oid Partition, the
   SPSC router and presumed-abort 2PC. *)

open El_model
module Experiment = El_harness.Experiment
module Shard_group = El_shard.Shard_group
module Flush_array = El_disk.Flush_array

let config (o : Report.opts) =
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let policy = El_core.Policy.default ~generation_sizes:[| 320; 256 |] in
  {
    (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
    Experiment.arrival_rate = 1000.0;
    runtime = Time.of_sec (if o.tiny then 5 else 60);
    flush_drives = 128;
    num_objects = 1_000_000;
    seed = o.seed;
    shards = 4;
  }

(* Commit conservation: every acknowledged transaction commits on
   exactly one shard, and is either a single-shard or a 2PC commit. *)
let conserved (rr : Shard_group.run_result) =
  let committed = rr.Shard_group.r_global.Experiment.committed in
  let per_shard =
    Array.fold_left
      (fun acc (s : Shard_group.shard_stat) -> acc + s.Shard_group.ss_committed)
      0 rr.Shard_group.r_shards
  in
  committed > 0 && per_shard = committed
  && rr.Shard_group.r_single_committed + rr.Shard_group.r_cross_committed
     = committed
  && (not rr.Shard_group.r_global.Experiment.overloaded)

type layer_totals = {
  sink : Trace.acc;
  mutable runs : int;
  mutable prepare_s : float;
  mutable engine_s : float;
  mutable events : int;
  mutable committed : int;
  mutable cross : int;
  mutable prepares : int;
  mutable blocked : int;
  mutable mailbox_ops : int;
  mutable log_writes : int;
  mutable flush_completions : int;
  mutable backlog_peak : int;
}

let run (o : Report.opts) =
  let cfg = config o in
  let setup =
    Array.init 25 (fun _ ->
        let t0 = Trace.now () in
        Shard_group.dispose (Shard_group.prepare cfg);
        Trace.now () -. t0)
  in
  let lt =
    {
      sink = Trace.acc ();
      runs = 0;
      prepare_s = 0.0;
      engine_s = 0.0;
      events = 0;
      committed = 0;
      cross = 0;
      prepares = 0;
      blocked = 0;
      mailbox_ops = 0;
      log_writes = 0;
      flush_completions = 0;
      backlog_peak = 0;
    }
  in
  let runs = ref 0 and failed = ref 0 in
  let walls = ref [] and traced_walls = ref [] and slices = ref [] in
  let committed = ref 0 and minor_words = ref 0.0 in
  let seconds = int_of_float (Time.to_sec_f cfg.Experiment.runtime) in
  Report.repeat o (fun i ->
      let traced = Report.traced_pass o i in
      let w0 = Gc.minor_words () in
      let t0 = Trace.now () in
      let g =
        Trace.span "prepare" (fun () ->
            if traced then
              Shard_group.prepare
                ~wrap_shard_sink:(fun _ s -> Trace.wrap_sink lt.sink s)
                cfg
            else Shard_group.prepare cfg)
      in
      let t1 = Trace.now () in
      if traced then
        Array.iter
          (fun (inst : Experiment.instance) ->
            Flush_array.add_flush_observer inst.Experiment.i_flush
              (fun _ ~version:_ ->
                lt.flush_completions <- lt.flush_completions + 1))
          (Shard_group.instances g);
      (* The engine is stepped one simulated second at a time, so each
         second's wall cost is one latency sample; [finish] then has
         nothing left to run and only collects. *)
      let rr =
        Fun.protect
          ~finally:(fun () -> Shard_group.dispose g)
          (fun () ->
            Trace.span "run" (fun () ->
                let engine = Shard_group.engine g in
                for s = 1 to seconds do
                  let s0 = Trace.now () in
                  El_sim.Engine.run engine ~until:(Time.of_sec s);
                  if not traced then slices := (Trace.now () -. s0) :: !slices
                done;
                Shard_group.finish g))
      in
      let t2 = Trace.now () in
      let wall = t2 -. t0 in
      let c = rr.Shard_group.r_global.Experiment.committed in
      incr runs;
      if not (conserved rr) then incr failed;
      if traced then begin
        traced_walls := wall :: !traced_walls;
        lt.runs <- lt.runs + 1;
        lt.prepare_s <- lt.prepare_s +. (t1 -. t0);
        lt.engine_s <- lt.engine_s +. (t2 -. t1);
        lt.events <- lt.events + El_sim.Engine.events_dispatched (Shard_group.engine g);
        lt.committed <- lt.committed + c;
        lt.cross <- lt.cross + rr.Shard_group.r_cross_committed;
        lt.prepares <- lt.prepares + rr.Shard_group.r_prepares;
        lt.blocked <- lt.blocked + rr.Shard_group.r_blocked;
        lt.mailbox_ops <-
          lt.mailbox_ops + Array.fold_left ( + ) 0 (Shard_group.mailbox_ops g);
        lt.log_writes <-
          lt.log_writes + rr.Shard_group.r_global.Experiment.log_writes_total;
        lt.backlog_peak <-
          Array.fold_left
            (fun acc (inst : Experiment.instance) ->
              max acc (Flush_array.peak_backlog inst.Experiment.i_flush))
            lt.backlog_peak (Shard_group.instances g)
      end
      else begin
        walls := wall :: !walls;
        committed := !committed + c;
        minor_words := !minor_words +. (Gc.minor_words () -. w0)
      end);
  let walls = Array.of_list !walls and slices = Array.of_list !slices in
  let e2e =
    [
      ("setup_s", Trace.median setup);
      ("wall_s", Trace.median walls);
      ("rate_per_s", Report.fl !committed /. Array.fold_left ( +. ) 0.0 walls);
      ("p50_us", 1e6 *. Trace.median slices);
      ("peak_rss_mb", Trace.peak_rss_mb None);
    ]
  in
  let layers =
    if not o.trace then []
    else begin
      let per x = x /. Report.fl lt.runs in
      let sink_s = lt.sink.Trace.self in
      let route_engine_s = lt.engine_s -. sink_s in
      let traced_wall = Trace.median (Array.of_list !traced_walls) in
      [
        ("harness.probes", 1.0);
        ("harness.probe_s", per (lt.prepare_s +. lt.engine_s));
        ("harness.prepare_s", per lt.prepare_s);
        ("sim.events_per_tx", Report.ratio lt.events lt.committed);
        ("sim.dispatch_s", per route_engine_s);
        ("core.sink_s", per sink_s);
        ("core.sink_calls", per (Report.fl lt.sink.Trace.calls));
        ("core.minor_words_per_tx", !minor_words /. Report.fl !committed);
        ("disk.log_writes", per (Report.fl lt.log_writes));
        ("disk.flush_completions", per (Report.fl lt.flush_completions));
        ("disk.flush_backlog_peak", Report.fl lt.backlog_peak);
        ("shard.sink_s", per sink_s);
        ("shard.route_engine_s", per route_engine_s);
        ("shard.mailbox_ops_per_tx", Report.ratio lt.mailbox_ops lt.committed);
        ("shard.prepares_per_cross_tx", Report.ratio lt.prepares lt.cross);
        ("shard.blocked", per (Report.fl lt.blocked));
        ( "trace.overhead_pct",
          Report.pct (traced_wall -. Trace.median walls) (Trace.median walls) );
        ( "trace.coverage_pct",
          Report.pct (lt.prepare_s +. lt.engine_s)
            (List.fold_left ( +. ) 0.0 !traced_walls) );
      ]
    end
  in
  {
    Report.attempted = !runs;
    failed = !failed;
    e2e;
    layers;
    lines =
      [
        Printf.sprintf "sim_tx_per_s = %.1f tx/s (%d committed over %d runs)"
          (List.assoc "rate_per_s" e2e) !committed (Array.length walls);
        Printf.sprintf
          "simulated-second slice p50 = %.1f ms, p90 = %.1f ms (%d slices)"
          (1e3 *. Trace.median slices)
          (1e3 *. Trace.quantile 0.9 slices)
          (Array.length slices);
      ];
  }
