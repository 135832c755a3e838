(* paper_fig4: the Figure 4 minimum-space search at 5 % long
   transactions, quick mode, one probe at a time — the CPU-bound
   simulator path (engine, generator, EL and FW managers, flush array).
   It writes no bytes, so the store, serve and recovery layers do
   nothing here: it is the bypass workload for changes to them. *)

open El_model
module Experiment = El_harness.Experiment
module Min_space = El_harness.Min_space
module Paper = El_harness.Paper
module Flush_array = El_disk.Flush_array

(* The repo's reproduced Figure 4 point at the paper's seed. *)
let paper_seed = 42
let expected_fw = 123
let expected_el = 34

let config (o : Report.opts) =
  let cfg =
    Paper.base_config ~speed:`Quick ~kind:(Experiment.Firewall 512) ~long_pct:5
      ()
  in
  let cfg = { cfg with Experiment.seed = o.seed } in
  if o.tiny then Min_space.runtime_scale cfg (Time.of_sec 10) else cfg

let no_recirc sizes =
  { (El_core.Policy.default ~generation_sizes:sizes) with
    El_core.Policy.recirculate = false }

let total = Array.fold_left ( + ) 0

(* Min_space.min_fw plus the coarse-then-refine two-generation EL
   search, exactly as Paper.figs_4_5_6 runs them for one mix point,
   with every probe going through [run]. *)
let search ~run cfg =
  let fw, _ = Min_space.min_fw ~run cfg in
  let two g0_candidates =
    Min_space.min_el_two_gen ~run cfg ~make_policy:no_recirc ~g0_candidates
      ~hi:256
  in
  let coarse = [ 8; 12; 16; 20; 24 ] in
  let el =
    match two coarse with
    | None -> None
    | Some (sizes, _) -> (
      let g0 = sizes.(0) in
      let refine =
        List.filter (fun c -> c > 0 && not (List.mem c coarse)) [ g0 - 1; g0 + 1 ]
      in
      match two refine with
      | Some (sizes', _) when total sizes' < total sizes -> Some sizes'
      | Some _ | None -> Some sizes)
  in
  (fw, Option.map total el)

(* Counters summed over the traced searches. *)
type layer_totals = {
  sink : Trace.acc;
  mutable probes : int;
  mutable prepare_s : float;
  mutable run_s : float;
  mutable events : int;
  mutable committed : int;
  mutable log_writes : int;
  mutable flush_completions : int;
  mutable backlog_peak : int;
}

let traced_probe lt cfg =
  Trace.span "probe" (fun () ->
      let t0 = Trace.now () in
      let live =
        Trace.span "prepare" (fun () ->
            Experiment.prepare ~wrap_sink:(Trace.wrap_sink lt.sink) cfg)
      in
      let t1 = Trace.now () in
      Flush_array.add_flush_observer live.Experiment.flush (fun _ ~version:_ ->
          lt.flush_completions <- lt.flush_completions + 1);
      let r =
        Fun.protect
          ~finally:(fun () -> Experiment.dispose live)
          (fun () -> Trace.span "run" live.Experiment.finish)
      in
      let t2 = Trace.now () in
      lt.probes <- lt.probes + 1;
      lt.prepare_s <- lt.prepare_s +. (t1 -. t0);
      lt.run_s <- lt.run_s +. (t2 -. t1);
      lt.events <- lt.events + El_sim.Engine.events_dispatched live.Experiment.engine;
      lt.committed <- lt.committed + r.Experiment.committed;
      lt.log_writes <- lt.log_writes + r.Experiment.log_writes_total;
      lt.backlog_peak <-
        max lt.backlog_peak (Flush_array.peak_backlog live.Experiment.flush);
      r)

let run (o : Report.opts) =
  let cfg = config o in
  let setup =
    Array.init 51 (fun _ ->
        let t0 = Trace.now () in
        Experiment.dispose (Experiment.prepare cfg);
        Trace.now () -. t0)
  in
  let searches = ref 0 and failed = ref 0 in
  let walls = ref [] and traced_walls = ref [] and probe_walls = ref [] in
  let committed = ref 0 and minor_words = ref 0.0 in
  let lt =
    {
      sink = Trace.acc ();
      probes = 0;
      prepare_s = 0.0;
      run_s = 0.0;
      events = 0;
      committed = 0;
      log_writes = 0;
      flush_completions = 0;
      backlog_peak = 0;
    }
  in
  let plain_probe cfg =
    let w0 = Gc.minor_words () in
    let t0 = Trace.now () in
    let r = Experiment.run cfg in
    probe_walls := (Trace.now () -. t0) :: !probe_walls;
    minor_words := !minor_words +. (Gc.minor_words () -. w0);
    committed := !committed + r.Experiment.committed;
    r
  in
  let last = ref (0, None) in
  Report.repeat o (fun i ->
      let traced = Report.traced_pass o i in
      let run = if traced then traced_probe lt else plain_probe in
      let t0 = Trace.now () in
      let fw, el = Trace.span "search" (fun () -> search ~run cfg) in
      let wall = Trace.now () -. t0 in
      if traced then traced_walls := wall :: !traced_walls
      else walls := wall :: !walls;
      incr searches;
      last := (fw, el);
      let ok =
        match el with
        | None -> false
        | Some el ->
          el < fw
          && (o.tiny || o.seed <> paper_seed
             || (fw = expected_fw && el = expected_el))
      in
      if not ok then incr failed);
  let walls = Array.of_list !walls in
  let probe_walls = Array.of_list !probe_walls in
  let untraced_s = Array.fold_left ( +. ) 0.0 walls in
  let fw, el = !last in
  let e2e =
    [
      ("setup_s", Trace.median setup);
      ("wall_s", Trace.median walls);
      ("rate_per_s", Report.fl !committed /. untraced_s);
      ("p50_us", 1e6 *. Trace.median probe_walls);
      ("peak_rss_mb", Trace.peak_rss_mb None);
    ]
  in
  let layers =
    if not o.trace then []
    else begin
      let n = Report.fl (List.length !traced_walls) in
      let per x = x /. n in
      let sink_s = lt.sink.Trace.self in
      let dispatch_s = lt.run_s -. sink_s in
      let traced_wall = Trace.median (Array.of_list !traced_walls) in
      [
        ("harness.probes", per (Report.fl lt.probes));
        ("harness.probe_s", per (Trace.total "probe"));
        ("harness.prepare_s", per lt.prepare_s);
        ("sim.events_per_tx", Report.ratio lt.events lt.committed);
        ("sim.dispatch_s", per dispatch_s);
        ("core.sink_s", per sink_s);
        ("core.sink_calls", per (Report.fl lt.sink.Trace.calls));
        ("core.minor_words_per_tx", !minor_words /. Report.fl !committed);
        ("disk.log_writes", per (Report.fl lt.log_writes));
        ("disk.flush_completions", per (Report.fl lt.flush_completions));
        ("disk.flush_backlog_peak", Report.fl lt.backlog_peak);
        ( "trace.overhead_pct",
          Report.pct (traced_wall -. Trace.median walls) (Trace.median walls) );
        ( "trace.coverage_pct",
          Report.pct (lt.prepare_s +. lt.run_s)
            (List.fold_left ( +. ) 0.0 !traced_walls) );
      ]
    end
  in
  {
    Report.attempted = !searches;
    failed = !failed;
    e2e;
    layers;
    lines =
      [
        Printf.sprintf "fig4 point: FW %d blocks, EL %s blocks (seed %d)" fw
          (match el with Some e -> string_of_int e | None -> "none")
          o.seed;
        Printf.sprintf "fig4_wall_s = %.3f s (median of %d searches)"
          (Trace.median walls) (Array.length walls);
        Printf.sprintf "probe p50 = %.1f ms, p90 = %.1f ms (%d probes)"
          (1e3 *. Trace.median probe_walls)
          (1e3 *. Trace.quantile 0.9 probe_walls)
          (Array.length probe_walls);
      ];
  }
