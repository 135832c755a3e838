open El_model
module Experiment = El_harness.Experiment
module Min_space = El_harness.Min_space
module Policy = El_core.Policy
module Mix = El_workload.Mix

(* A synthetic result for exercising the search logic without
   simulations. *)
let fake_result ~feasible =
  let probe_cfg =
    Experiment.default_config ~kind:(Experiment.Firewall 8)
      ~mix:(Mix.short_long ~long_fraction:0.05)
  in
  let cfg = { probe_cfg with Experiment.runtime = Time.of_ms 1 } in
  let r = Experiment.run cfg in
  (* runtime 1 ms: nothing happened; doctor the feasibility flag *)
  { r with Experiment.feasible }

let test_binary_search_logic () =
  let calls = ref [] in
  let threshold = 37 in
  let probe n =
    calls := n :: !calls;
    fake_result ~feasible:(n >= threshold)
  in
  (match Min_space.min_feasible ~lo:4 ~hi:128 probe with
  | Some (n, r) ->
    Alcotest.(check int) "finds the threshold" threshold n;
    Alcotest.(check bool) "result is the feasible one" true r.Experiment.feasible
  | None -> Alcotest.fail "expected a result");
  Alcotest.(check bool) "logarithmic probe count" true (List.length !calls <= 9)

let test_search_all_infeasible () =
  let probe _ = fake_result ~feasible:false in
  Alcotest.(check bool) "None when hi infeasible" true
    (Min_space.min_feasible ~lo:4 ~hi:64 probe = None)

let test_search_all_feasible () =
  match Min_space.min_feasible ~lo:4 ~hi:64 (fun _ -> fake_result ~feasible:true) with
  | Some (n, _) -> Alcotest.(check int) "lo returned" 4 n
  | None -> Alcotest.fail "expected lo"

let test_bracket_mode_logic () =
  (* Speculative bracket mode (jobs > 1) must land on the same
     boundary as the serial binary search; an odd job count exercises
     uneven candidate spacing. *)
  El_par.Pool.with_pool ~jobs:3 (fun pool ->
      let threshold = 37 in
      let probe n = fake_result ~feasible:(n >= threshold) in
      (match Min_space.min_feasible ~pool ~lo:4 ~hi:128 probe with
      | Some (n, r) ->
        Alcotest.(check int) "bracket finds the threshold" threshold n;
        Alcotest.(check bool) "result is the feasible one" true
          r.Experiment.feasible
      | None -> Alcotest.fail "expected a result");
      (match Min_space.min_feasible ~pool ~lo:4 ~hi:64 (fun _ ->
                 fake_result ~feasible:true)
       with
      | Some (n, _) -> Alcotest.(check int) "all-feasible returns lo" 4 n
      | None -> Alcotest.fail "expected lo");
      Alcotest.(check bool) "all-infeasible returns None" true
        (Min_space.min_feasible ~pool ~lo:4 ~hi:64 (fun _ ->
             fake_result ~feasible:false)
        = None))

let test_empty_range () =
  Alcotest.check_raises "lo>hi"
    (Invalid_argument "Min_space.min_feasible: empty range") (fun () ->
      ignore
        (Min_space.min_feasible ~lo:5 ~hi:4 (fun _ ->
             fake_result ~feasible:true)))

(* The ascending search must return what the binary search returns,
   at every threshold in and around [lo, hi] and at any job count,
   with the result of the probe at the answer; it probes each size at
   most once, never outside [lo, hi], and — climbing from below — runs
   only a few feasible probes when the threshold is low. *)
let test_ascending_matches_binary () =
  let base = fake_result ~feasible:true in
  let lo = 4 and hi = 128 in
  let search ?pool find threshold =
    let probed = ref [] in
    let probe n =
      probed := n :: !probed;
      { base with Experiment.feasible = n >= threshold; killed = n }
    in
    let got = find ?pool ~lo ~hi probe in
    (Option.map (fun (n, r) -> (n, r.Experiment.killed)) got, !probed)
  in
  List.iter
    (fun jobs ->
      El_par.Pool.with_pool ~jobs (fun pool ->
          for threshold = lo - 1 to hi + 1 do
            let label fmt =
              Printf.sprintf ("jobs %d, threshold %d: " ^^ fmt) jobs threshold
            in
            let expected, _ = search Min_space.min_feasible threshold in
            let got, probed =
              search ~pool Min_space.min_feasible_ascending threshold
            in
            Alcotest.(check (option (pair int int)))
              (label "answer") expected got;
            Alcotest.(check bool) (label "sizes in range") true
              (List.for_all (fun n -> n >= lo && n <= hi) probed);
            Alcotest.(check int) (label "no size probed twice")
              (List.length probed)
              (List.length (List.sort_uniq compare probed));
            if jobs = 1 then
              Alcotest.(check bool)
                (label "logarithmic probe count (%d)" (List.length probed))
                true
                (List.length probed <= 15)
          done))
    [ 1; 2; 3 ];
  let _, probed = search Min_space.min_feasible_ascending (lo + 1) in
  Alcotest.(check bool) "threshold near lo: at most 2 feasible probes" true
    (List.length (List.filter (fun n -> n >= lo + 1) probed) <= 2);
  Alcotest.check_raises "lo>hi"
    (Invalid_argument "Min_space.min_feasible_ascending: empty range")
    (fun () ->
      ignore
        (Min_space.min_feasible_ascending ~lo:5 ~hi:4 (fun _ -> base)))

(* Real (short) searches: 30 s runs with a fast mix so the suite stays
   quick while exercising the full pipeline. *)

let quick_cfg () =
  {
    (Experiment.default_config ~kind:(Experiment.Firewall 64)
       ~mix:(Mix.short_long ~long_fraction:0.05)) with
    Experiment.runtime = Time.of_sec 30;
  }

let test_min_fw_end_to_end () =
  let blocks, result = Min_space.min_fw (quick_cfg ()) in
  Alcotest.(check bool)
    (Printf.sprintf "FW minimum near 123 (got %d)" blocks)
    true
    (blocks >= 110 && blocks <= 135);
  Alcotest.(check bool) "result feasible" true result.Experiment.feasible;
  (* One block less must be infeasible: minimality. *)
  let r =
    Experiment.run
      { (quick_cfg ()) with Experiment.kind = Experiment.Firewall (blocks - 1) }
  in
  Alcotest.(check bool) "one less kills" true (not r.Experiment.feasible)

let test_min_el_last_gen_end_to_end () =
  let make_policy sizes =
    { (Policy.default ~generation_sizes:sizes) with Policy.recirculate = false }
  in
  match
    Min_space.min_el_last_gen (quick_cfg ()) ~make_policy ~leading:[| 18 |]
      ~hi:64
  with
  | Some (g1, result) ->
    Alcotest.(check bool)
      (Printf.sprintf "gen1 minimum near 16 (got %d)" g1)
      true (g1 >= 10 && g1 <= 22);
    Alcotest.(check bool) "feasible" true result.Experiment.feasible
  | None -> Alcotest.fail "expected a feasible last-generation size"

(* The FW bracket grows 512 -> 2048 -> 8192 and its last probe is
   clamped to 16384, the largest size the search promises to try: a
   workload whose threshold lies in (8192, 16384] is found, and one
   just above it fails.  A fake [~run] answers by threshold, with a
   peak occupancy just under it, as a real FW run would report. *)
let test_min_fw_bracket_reaches_cap () =
  let base = fake_result ~feasible:true in
  let stats = Option.get base.Experiment.fw_stats in
  let search threshold =
    let probed = ref [] in
    let run cfg =
      Alcotest.(check bool) "probes stop at the first kill" true
        cfg.Experiment.stop_at_kill;
      match cfg.Experiment.kind with
      | Experiment.Firewall n ->
        probed := n :: !probed;
        {
          base with
          Experiment.feasible = n >= threshold;
          fw_stats =
            Some { stats with El_core.Fw_manager.peak_occupancy = threshold - 6 };
        }
      | _ -> Alcotest.fail "FW search probed a non-FW config"
    in
    let outcome =
      match Min_space.min_fw ~run (quick_cfg ()) with
      | blocks, _ -> Ok blocks
      | exception Failure msg -> Error msg
    in
    (outcome, List.rev !probed)
  in
  (match search 12_000 with
  | Ok blocks, probed ->
    Alcotest.(check int) "threshold found above 8192" 12_000 blocks;
    Alcotest.(check (list int)) "bracket probes" [ 512; 2048; 8192; 16384 ]
      (List.filteri (fun i _ -> i < 4) probed);
    Alcotest.(check bool) "never probes past 16384" true
      (List.for_all (fun n -> n <= 16384) probed)
  | Error msg, _ -> Alcotest.fail msg);
  (match search 16_384 with
  | Ok blocks, _ -> Alcotest.(check int) "threshold at the cap" 16_384 blocks
  | Error msg, _ -> Alcotest.fail msg);
  match search 16_385 with
  | Ok _, _ -> Alcotest.fail "a threshold above 16384 must fail"
  | Error msg, probed ->
    Alcotest.(check string) "failure message"
      "Min_space.min_fw: workload needs >16384 blocks" msg;
    Alcotest.(check (list int)) "cap probed once, then give up"
      [ 512; 2048; 8192; 16384 ] probed

(* --- Stopping at the first kill ------------------------------------ *)

let marshal x = Marshal.to_string x []

(* Runs [cfg] and returns its result with the engine events it
   dispatched. *)
let run_counted cfg =
  let live = Experiment.prepare cfg in
  Fun.protect
    ~finally:(fun () -> Experiment.dispose live)
    (fun () ->
      let r = live.Experiment.finish () in
      (r, El_sim.Engine.events_dispatched live.Experiment.engine))

let no_recirc sizes =
  { (Policy.default ~generation_sizes:sizes) with Policy.recirculate = false }

let test_stop_at_kill_probe () =
  let cfg = quick_cfg () in
  List.iter
    (fun (name, kind, feasible) ->
      let plain, plain_events = run_counted { cfg with Experiment.kind } in
      let stopped, stopped_events =
        run_counted { cfg with Experiment.kind; stop_at_kill = true }
      in
      Alcotest.(check bool) (name ^ ": feasibility") feasible
        plain.Experiment.feasible;
      Alcotest.(check bool) (name ^ ": same verdict") feasible
        stopped.Experiment.feasible;
      if feasible then begin
        Alcotest.(check bool) (name ^ ": result Marshal-identical") true
          (marshal plain = marshal stopped);
        Alcotest.(check int) (name ^ ": same events") plain_events
          stopped_events
      end
      else begin
        Alcotest.(check bool) (name ^ ": killed >= 1") true
          (stopped.Experiment.killed >= 1);
        Alcotest.(check bool)
          (Printf.sprintf "%s: fewer events (%d < %d)" name stopped_events
             plain_events)
          true
          (stopped_events < plain_events)
      end)
    [
      ("FW 200", Experiment.Firewall 200, true);
      ("FW 60", Experiment.Firewall 60, false);
      ("EL 18+16", Experiment.Ephemeral (no_recirc [| 18; 16 |]), true);
      ("EL 18+6", Experiment.Ephemeral (no_recirc [| 18; 6 |]), false);
    ]

(* --- Pruned two-generation search ----------------------------------- *)

let total = Array.fold_left ( + ) 0

(* The two-generation search as it was before candidates were pruned:
   every candidate searched over the whole [gap+1, hi] range, outcomes
   folded in candidate order with the larger-first-generation
   tie-break. *)
let reference_two_gen ~run cfg ~make_policy ~g0_candidates ~hi =
  List.fold_left
    (fun best g0 ->
      match
        Min_space.min_el_last_gen ~run cfg ~make_policy ~leading:[| g0 |] ~hi
      with
      | None -> best
      | Some (g1, r) -> (
        let sizes = [| g0; g1 |] in
        match best with
        | Some (b, _)
          when total sizes > total b || (total sizes = total b && g0 <= b.(0))
          ->
          best
        | Some _ | None -> Some (sizes, r)))
    None g0_candidates

(* Synthetic searches: feasible iff the second generation is at least
   [need g0], so ties are easy to build.  Every candidate order must
   give the reference's winner — the smallest total, then the larger
   first generation, then the earlier candidate — and a candidate that
   cannot win is never probed. *)
let test_pruned_two_gen_synthetic () =
  let base = fake_result ~feasible:true in
  let search two ~need g0_candidates =
    let probed = ref [] in
    let run cfg =
      match cfg.Experiment.kind with
      | Experiment.Ephemeral p ->
        let sizes = p.Policy.generation_sizes in
        probed := sizes.(0) :: !probed;
        { base with Experiment.feasible = sizes.(1) >= need sizes.(0) }
      | _ -> Alcotest.fail "two-gen search probed a non-EL config"
    in
    let got =
      two ~run (quick_cfg ()) ~make_policy:no_recirc ~g0_candidates ~hi:64
    in
    (Option.map fst got, !probed)
  in
  let pruned ~run cfg = Min_space.min_el_two_gen ~run cfg in
  List.iter
    (fun (name, need) ->
      List.iter
        (fun order ->
          let label =
            Printf.sprintf "%s, [%s]" name
              (String.concat ";" (List.map string_of_int order))
          in
          let expected, _ = search reference_two_gen ~need order in
          let got, _ = search pruned ~need order in
          Alcotest.(check (option (array int))) label expected got)
        [
          [ 8; 12; 16; 20; 24 ];
          [ 24; 20; 16; 12; 8 ];
          [ 16; 24; 8; 20; 12 ];
          [ 12; 20; 12; 20; 8 ];
        ])
    [
      ("flat total 36", fun g0 -> max 3 (36 - g0));
      ("valley at 14", fun g0 -> 10 + abs (g0 - 14));
      ("rising", fun g0 -> 3 + g0);
    ];
  let best, probed = search pruned ~need:(fun g0 -> max 3 (36 - g0)) [ 20; 40 ] in
  Alcotest.(check (option (array int))) "winner" (Some [| 20; 16 |]) best;
  Alcotest.(check bool) "a candidate that cannot win is skipped" false
    (List.mem 40 probed)

(* Full runs, whatever the probe asked for. *)
let full_run cfg = Experiment.run { cfg with Experiment.stop_at_kill = false }
let coarse = [ 8; 12; 16; 20; 24 ]

let test_pruned_two_gen_matches_reference () =
  List.iter
    (fun (seed, long_pct) ->
      let cfg =
        {
          (quick_cfg ()) with
          Experiment.seed;
          mix = Mix.short_long ~long_fraction:(float_of_int long_pct /. 100.0);
        }
      in
      let expected =
        reference_two_gen ~run:full_run cfg ~make_policy:no_recirc
          ~g0_candidates:coarse ~hi:256
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, %d%%: reference found a split" seed long_pct)
        true (expected <> None);
      List.iter
        (fun jobs ->
          let got =
            El_par.Pool.with_pool ~jobs (fun pool ->
                Min_space.min_el_two_gen ~pool cfg ~make_policy:no_recirc
                  ~g0_candidates:coarse ~hi:256)
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d, %d%%, jobs %d: Marshal-identical" seed
               long_pct jobs)
            true
            (marshal got = marshal expected))
        [ 1; 2 ])
    [ (1, 5); (2, 5); (42, 5); (1, 40); (2, 40); (42, 40) ]

(* Deterministic work gate: the Figure 4 search at 5 % long — the FW
   minimum plus the coarse-then-refine two-generation EL search —
   dispatches at most 60 % of the engine events of the same search
   with full-run probes and no pruning, and finds the same sizes. *)
let test_fig4_search_work_gate () =
  let cfg = quick_cfg () in
  let search ~run ~two =
    let fw, _ = Min_space.min_fw ~run cfg in
    let two g0_candidates =
      two ~run cfg ~make_policy:no_recirc ~g0_candidates ~hi:256
    in
    let el =
      match two coarse with
      | None -> None
      | Some (sizes, _) -> (
        let g0 = sizes.(0) in
        let refine =
          List.filter
            (fun c -> c > 0 && not (List.mem c coarse))
            [ g0 - 1; g0 + 1 ]
        in
        match two refine with
        | Some (sizes', _) when total sizes' < total sizes -> Some sizes'
        | Some _ | None -> Some sizes)
    in
    (fw, el)
  in
  let counting events force_full cfg =
    let cfg =
      if force_full then { cfg with Experiment.stop_at_kill = false } else cfg
    in
    let r, n = run_counted cfg in
    events := !events + n;
    r
  in
  let ref_events = ref 0 and events = ref 0 in
  let expected =
    search ~run:(counting ref_events true) ~two:reference_two_gen
  in
  let got =
    search ~run:(counting events false)
      ~two:(fun ~run cfg -> Min_space.min_el_two_gen ~run cfg)
  in
  Alcotest.(check bool) "same FW and EL minima" true (got = expected);
  let share = float_of_int !events /. float_of_int !ref_events in
  Alcotest.(check bool)
    (Printf.sprintf "events %d <= 60%% of the reference's %d (%.0f%%)" !events
       !ref_events (100.0 *. share))
    true (share <= 0.60)

let suite =
  [
    Alcotest.test_case "binary search finds the boundary" `Quick
      test_binary_search_logic;
    Alcotest.test_case "all-infeasible returns None" `Quick
      test_search_all_infeasible;
    Alcotest.test_case "all-feasible returns lo" `Quick test_search_all_feasible;
    Alcotest.test_case "empty range rejected" `Quick test_empty_range;
    Alcotest.test_case "bracket mode matches binary search" `Quick
      test_bracket_mode_logic;
    Alcotest.test_case "ascending search matches binary search" `Quick
      test_ascending_matches_binary;
    Alcotest.test_case "FW minimum-space search (30s runs)" `Slow
      test_min_fw_end_to_end;
    Alcotest.test_case "EL last-generation search (30s runs)" `Slow
      test_min_el_last_gen_end_to_end;
    Alcotest.test_case "FW bracket probes up to 16384" `Quick
      test_min_fw_bracket_reaches_cap;
    Alcotest.test_case "probes stop at the first kill (30s runs)" `Slow
      test_stop_at_kill_probe;
    Alcotest.test_case "pruned two-gen search = reference, any order" `Quick
      test_pruned_two_gen_synthetic;
    Alcotest.test_case "pruned two-gen search = full reference (30s runs)" `Slow
      test_pruned_two_gen_matches_reference;
    Alcotest.test_case "fig-4 search work gate (30s runs)" `Slow
      test_fig4_search_work_gate;
  ]
