open El_model
module Experiment = El_harness.Experiment
module Policy = El_core.Policy
module Mix = El_workload.Mix

(* Integration tests: whole simulations with paper parameters, short
   runtimes, checked against analytically predictable figures. *)

let paper_cfg ~kind ?(runtime = 60) ?(long = 0.05) () =
  {
    (Experiment.default_config ~kind ~mix:(Mix.short_long ~long_fraction:long)) with
    Experiment.runtime = Time.of_sec runtime;
  }

let test_fw_bandwidth_matches_payload_math () =
  (* 5% mix at 100 TPS: 2.1 updates/tx ⇒ 226 B/tx ⇒ 22.6 kB/s over
     2000-byte payloads ≈ 11.3 block writes/s (the paper reports
     11.63). *)
  let r = Experiment.run (paper_cfg ~kind:(Experiment.Firewall 512) ()) in
  Alcotest.(check bool)
    (Printf.sprintf "rate in [11.0, 12.2] (got %.2f)" r.Experiment.log_write_rate)
    true
    (r.Experiment.log_write_rate >= 11.0 && r.Experiment.log_write_rate <= 12.2);
  Alcotest.(check bool) "feasible at 512 blocks" true r.Experiment.feasible;
  Alcotest.(check int) "100 TPS x 60 s" 6000 r.Experiment.started

let test_fw_peak_occupancy_near_paper () =
  let r = Experiment.run (paper_cfg ~kind:(Experiment.Firewall 512) ()) in
  match r.Experiment.fw_stats with
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "peak occupancy ~121 (got %d)" s.El_core.Fw_manager.peak_occupancy)
      true
      (s.El_core.Fw_manager.peak_occupancy >= 110
      && s.El_core.Fw_manager.peak_occupancy <= 130)
  | None -> Alcotest.fail "fw stats expected"

let test_el_bandwidth_overhead_small () =
  let fw = Experiment.run (paper_cfg ~kind:(Experiment.Firewall 512) ()) in
  let policy =
    {
      (Policy.default ~generation_sizes:[| 18; 16 |]) with
      Policy.recirculate = false;
    }
  in
  let el = Experiment.run (paper_cfg ~kind:(Experiment.Ephemeral policy) ()) in
  Alcotest.(check bool) "el feasible at 18+16" true el.Experiment.feasible;
  let overhead =
    (el.Experiment.log_write_rate -. fw.Experiment.log_write_rate)
    /. fw.Experiment.log_write_rate
  in
  Alcotest.(check bool)
    (Printf.sprintf "overhead within 5%%..25%% (got %.1f%%)" (overhead *. 100.))
    true
    (overhead > 0.05 && overhead < 0.25)

let test_el_updates_per_sec () =
  let policy = Policy.default ~generation_sizes:[| 18; 16 |] in
  let r = Experiment.run (paper_cfg ~kind:(Experiment.Ephemeral policy) ()) in
  Alcotest.(check bool)
    (Printf.sprintf "~210 updates/s (got %.0f)" r.Experiment.updates_per_sec)
    true
    (abs_float (r.Experiment.updates_per_sec -. 210.0) < 8.0)

let test_el_40pct_more_updates () =
  let policy = Policy.default ~generation_sizes:[| 18; 60 |] in
  let r =
    Experiment.run (paper_cfg ~kind:(Experiment.Ephemeral policy) ~long:0.4 ())
  in
  (* Long transactions arriving near the end of the run have not
     written all their records yet, so a short run measures slightly
     under the steady-state 280/s. *)
  Alcotest.(check bool)
    (Printf.sprintf "~280 updates/s at 40%% (got %.0f)" r.Experiment.updates_per_sec)
    true
    (r.Experiment.updates_per_sec > 255.0 && r.Experiment.updates_per_sec <= 285.0)

let test_determinism_across_runs () =
  let policy = Policy.default ~generation_sizes:[| 12; 12 |] in
  let cfg = paper_cfg ~kind:(Experiment.Ephemeral policy) ~runtime:20 () in
  let a = Experiment.run cfg and b = Experiment.run cfg in
  Alcotest.(check int) "same writes" a.Experiment.log_writes_total
    b.Experiment.log_writes_total;
  Alcotest.(check int) "same commits" a.Experiment.committed
    b.Experiment.committed;
  Alcotest.(check (float 1e-12)) "same flush distance"
    a.Experiment.flush_mean_distance b.Experiment.flush_mean_distance;
  let c = Experiment.run { cfg with Experiment.seed = 99 } in
  Alcotest.(check bool) "different seed differs somewhere" true
    (c.Experiment.flush_mean_distance <> a.Experiment.flush_mean_distance)

let test_infeasible_config_reports_kills () =
  (* A 10s transaction cannot survive a tiny log without
     recirculation. *)
  let policy =
    {
      (Policy.default ~generation_sizes:[| 4; 4 |]) with
      Policy.recirculate = false;
    }
  in
  let r =
    Experiment.run (paper_cfg ~kind:(Experiment.Ephemeral policy) ~runtime:30 ())
  in
  Alcotest.(check bool) "kills observed" true (r.Experiment.killed > 0);
  Alcotest.(check bool) "marked infeasible" true (not r.Experiment.feasible)

let test_scarce_flush_increases_locality () =
  let policy = Policy.default ~generation_sizes:[| 20; 16 |] in
  let base = paper_cfg ~kind:(Experiment.Ephemeral policy) ~runtime:120 () in
  let relaxed = Experiment.run base in
  let scarce =
    Experiment.run { base with Experiment.flush_transfer = Time.of_ms 45 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "distance shrinks: %.0f -> %.0f"
       relaxed.Experiment.flush_mean_distance scarce.Experiment.flush_mean_distance)
    true
    (scarce.Experiment.flush_mean_distance
    < relaxed.Experiment.flush_mean_distance *. 0.75);
  Alcotest.(check bool) "backlog grows" true
    (scarce.Experiment.flush_backlog_peak > relaxed.Experiment.flush_backlog_peak)

let test_commit_latency_sane () =
  let policy = Policy.default ~generation_sizes:[| 18; 16 |] in
  let r = Experiment.run (paper_cfg ~kind:(Experiment.Ephemeral policy) ()) in
  (* Group commit: at ~12.9 blocks/s a buffer fills in ~78 ms; mean
     wait is roughly half of that plus the 15 ms write. *)
  Alcotest.(check bool)
    (Printf.sprintf "latency 30..120 ms (got %.0f ms)"
       (r.Experiment.commit_latency_mean *. 1000.0))
    true
    (r.Experiment.commit_latency_mean > 0.030
    && r.Experiment.commit_latency_mean < 0.120)

let test_backfill_reduces_forward_blocks () =
  (* Without backfill every head block with survivors costs its own
     partially-filled forwarding write; backfill amortises them. *)
  let with_backfill = Policy.default ~generation_sizes:[| 18; 16 |] in
  let without = { with_backfill with Policy.forward_backfill = false } in
  let gen1_writes policy =
    let r =
      Experiment.run
        (paper_cfg ~kind:(Experiment.Ephemeral policy) ~runtime:120 ())
    in
    (r.Experiment.log_writes_per_gen.(1), r.Experiment.feasible)
  in
  let amortised, ok1 = gen1_writes with_backfill in
  let naive, ok2 = gen1_writes without in
  Alcotest.(check bool) "both feasible" true (ok1 && ok2);
  Alcotest.(check bool)
    (Printf.sprintf "fewer forwarding blocks with backfill: %d <= %d" amortised
       naive)
    true (amortised <= naive)

let test_fifo_flush_hurts_locality () =
  let policy = Policy.default ~generation_sizes:[| 20; 16 |] in
  let base =
    {
      (paper_cfg ~kind:(Experiment.Ephemeral policy) ~runtime:120 ()) with
      Experiment.flush_transfer = Time.of_ms 45;
    }
  in
  let nearest = Experiment.run base in
  let fifo =
    Experiment.run
      { base with Experiment.flush_scheduling = El_disk.Flush_array.Fifo }
  in
  Alcotest.(check bool)
    (Printf.sprintf "nearest seeks shorter: %.0f < %.0f"
       nearest.Experiment.flush_mean_distance fifo.Experiment.flush_mean_distance)
    true
    (nearest.Experiment.flush_mean_distance
    < fifo.Experiment.flush_mean_distance)

let test_lifetime_hint_reduces_forwarding () =
  let base_policy = Policy.default ~generation_sizes:[| 18; 16 |] in
  let hint_policy = { base_policy with Policy.placement = Policy.Lifetime_hint } in
  let base =
    Experiment.run
      (paper_cfg ~kind:(Experiment.Ephemeral base_policy) ~runtime:120 ())
  in
  let hinted =
    Experiment.run
      (paper_cfg ~kind:(Experiment.Ephemeral hint_policy) ~runtime:120 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "forwarding drops: %d -> %d"
       base.Experiment.forwarded_records hinted.Experiment.forwarded_records)
    true
    (hinted.Experiment.forwarded_records
    < base.Experiment.forwarded_records / 2);
  Alcotest.(check bool) "still no kills" true hinted.Experiment.feasible

(* The plant's re-entry guard: a kill hook that calls back into the
   plant that issued the kill must fail where it enters, with the named
   error.  The same plant under an honest hook (the generator's kill)
   runs on and kills. *)
let test_reentry_guard () =
  List.iter
    (fun (name, kind) ->
      let drive ~reenter =
        let cfg =
          {
            (paper_cfg ~kind ~runtime:20 ~long:0.4 ()) with
            Experiment.num_objects = 10_000;
          }
        in
        let engine = El_sim.Engine.create ~seed:cfg.Experiment.seed () in
        let inst =
          Experiment.build_instance engine cfg ~num_objects:10_000 ()
        in
        let gen =
          El_workload.Generator.create engine ~sink:inst.Experiment.i_sink
            ~mix:cfg.Experiment.mix ~arrival_rate:100.0
            ~runtime:cfg.Experiment.runtime ~num_objects:10_000 ()
        in
        inst.Experiment.i_set_on_kill (fun tid ->
            if reenter then
              inst.Experiment.i_sink.El_workload.Generator.request_abort ~tid
            else El_workload.Generator.kill gen tid);
        El_sim.Engine.run engine ~until:cfg.Experiment.runtime;
        El_workload.Generator.killed gen
      in
      Alcotest.(check bool)
        (name ^ ": an honest kill hook runs on and kills")
        true
        (drive ~reenter:false > 0);
      match drive ~reenter:true with
      | _ -> Alcotest.failf "%s: re-entering kill hook was not caught" name
      | exception Experiment.Plant_reentered msg ->
        Alcotest.(check bool)
          (name ^ ": the error names the entry point")
          true
          (String.starts_with ~prefix:"request_abort" msg))
    [
      ("FW 12 blocks", Experiment.Firewall 12);
      ( "EL 8+10, no recirculation",
        Experiment.Ephemeral
          {
            (Policy.default ~generation_sizes:[| 8; 10 |]) with
            Policy.recirculate = false;
          } );
    ]

let suite =
  [
    Alcotest.test_case "FW bandwidth matches payload arithmetic" `Quick
      test_fw_bandwidth_matches_payload_math;
    Alcotest.test_case "FW peak occupancy near the paper's 123" `Quick
      test_fw_peak_occupancy_near_paper;
    Alcotest.test_case "EL bandwidth overhead is small" `Quick
      test_el_bandwidth_overhead_small;
    Alcotest.test_case "210 updates/s at the 5% mix" `Quick
      test_el_updates_per_sec;
    Alcotest.test_case "280 updates/s at the 40% mix" `Quick
      test_el_40pct_more_updates;
    Alcotest.test_case "bitwise determinism per seed" `Quick
      test_determinism_across_runs;
    Alcotest.test_case "infeasible configurations kill and report" `Quick
      test_infeasible_config_reports_kills;
    Alcotest.test_case "scarce flushing improves locality" `Quick
      test_scarce_flush_increases_locality;
    Alcotest.test_case "group-commit latency in the expected band" `Quick
      test_commit_latency_sane;
    Alcotest.test_case "backfill amortises forwarding writes" `Quick
      test_backfill_reduces_forward_blocks;
    Alcotest.test_case "FIFO flushing loses locality" `Quick
      test_fifo_flush_hurts_locality;
    Alcotest.test_case "lifetime hints cut forward traffic" `Quick
      test_lifetime_hint_reduces_forwarding;
    Alcotest.test_case "a plant re-entered from its kill hook fails by name"
      `Quick test_reentry_guard;
  ]
