open El_model
module Engine = El_sim.Engine

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule_at e (Time.of_ms 10) (fun () ->
      seen := Time.to_us (Engine.now e) :: !seen);
  Engine.schedule_at e (Time.of_ms 5) (fun () ->
      seen := Time.to_us (Engine.now e) :: !seen);
  Engine.run_all e;
  Alcotest.(check (list int)) "dispatch times" [ 10_000; 5_000 ] !seen

let test_schedule_after () =
  let e = Engine.create () in
  let fired = ref Time.zero in
  Engine.schedule_at e (Time.of_ms 3) (fun () ->
      Engine.schedule_after e (Time.of_ms 4) (fun () -> fired := Engine.now e));
  Engine.run_all e;
  Alcotest.(check int) "relative delay" 7_000 (Time.to_us !fired)

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter
    (fun ms -> Engine.schedule_at e (Time.of_ms ms) (fun () -> incr count))
    [ 1; 2; 3; 10; 20 ];
  Engine.run e ~until:(Time.of_ms 5);
  Alcotest.(check int) "only early events" 3 !count;
  Alcotest.(check int) "clock at limit" 5_000 (Time.to_us (Engine.now e));
  Alcotest.(check int) "pending remain" 2 (Engine.pending_events e);
  Engine.run_all e;
  Alcotest.(check int) "all dispatched" 5 !count

let test_no_past_scheduling () =
  let e = Engine.create () in
  Engine.schedule_at e (Time.of_ms 10) (fun () -> ());
  Engine.run_all e;
  Alcotest.check_raises "past rejected"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      Engine.schedule_at e (Time.of_ms 5) (fun () -> ()))

let test_cascading_events () =
  (* An event scheduling another event at the same instant runs it in
     the same run_all, after all previously queued work. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Time.of_ms 1) (fun () ->
      log := "first" :: !log;
      Engine.schedule_after e Time.zero (fun () -> log := "chained" :: !log));
  Engine.schedule_at e (Time.of_ms 1) (fun () -> log := "second" :: !log);
  Engine.run_all e;
  Alcotest.(check (list string))
    "stable cascade order"
    [ "first"; "second"; "chained" ]
    (List.rev !log)

let test_determinism () =
  let trace seed =
    let e = Engine.create ~seed () in
    let out = ref [] in
    for _ = 1 to 5 do
      out := Random.State.int (Engine.rng e) 1000 :: !out
    done;
    !out
  in
  Alcotest.(check (list int)) "same seed, same draws" (trace 7) (trace 7);
  Alcotest.(check bool) "different seeds differ" true (trace 7 <> trace 8)

let test_events_dispatched () =
  let e = Engine.create () in
  for i = 1 to 4 do
    Engine.schedule_at e (Time.of_ms i) (fun () -> ())
  done;
  Engine.run_all e;
  Alcotest.(check int) "counter" 4 (Engine.events_dispatched e)

(* Regression pins for the documented [run ~until] clock semantics:
   the clock finishes exactly at [until] whether or not any event was
   dispatched, and a call with [until] in the past dispatches nothing
   and never rewinds the clock. *)
let test_run_until_clock_semantics () =
  let e = Engine.create () in
  Engine.run e ~until:(Time.of_ms 8);
  Alcotest.(check int) "empty queue still advances the clock" 8_000
    (Time.to_us (Engine.now e));
  Engine.schedule_at e (Time.of_ms 20) (fun () -> ());
  Engine.run e ~until:(Time.of_ms 3);
  Alcotest.(check int) "until in the past never rewinds" 8_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "and dispatches nothing" 1 (Engine.pending_events e);
  Engine.run e ~until:(Time.of_ms 25);
  Alcotest.(check int) "clock lands on until, not the last event" 25_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "event dispatched" 0 (Engine.pending_events e)

let test_run_steps_pauses () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter
    (fun ms -> Engine.schedule_at e (Time.of_ms ms) (fun () -> incr count))
    [ 1; 2; 3; 4; 5 ];
  let n = Engine.run_steps e ~until:(Time.of_ms 10) ~max_steps:2 in
  Alcotest.(check int) "stride honoured" 2 n;
  Alcotest.(check int) "clock rests at the last dispatched event" 2_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "remaining events untouched" 3 (Engine.pending_events e);
  let n = Engine.run_steps e ~until:(Time.of_ms 10) ~max_steps:50 in
  Alcotest.(check int) "exhausts eligible events" 3 n;
  Alcotest.(check int) "then advances the clock to until" 10_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "all dispatched" 5 !count

let test_on_dispatch_observer () =
  let e = Engine.create () in
  let boundaries = ref [] in
  Engine.on_dispatch e (fun () ->
      boundaries := Time.to_us (Engine.now e) :: !boundaries);
  List.iter
    (fun ms -> Engine.schedule_at e (Time.of_ms ms) (fun () -> ()))
    [ 2; 1; 3 ];
  Engine.run_all e;
  Alcotest.(check (list int)) "observer sees every boundary in order"
    [ 1_000; 2_000; 3_000 ] (List.rev !boundaries);
  Alcotest.(check int) "observer does not count as dispatch" 3
    (Engine.events_dispatched e)

let test_observer_registration_fifo () =
  (* Regression for the quadratic `observers @ [f]` registration: many
     observers registered one by one (including mid-run) must still
     fire in FIFO registration order at every subsequent dispatch. *)
  let e = Engine.create () in
  let order = ref [] in
  let register i = Engine.on_dispatch e (fun () -> order := i :: !order) in
  List.iter register [ 0; 1; 2 ];
  Engine.schedule_at e (Time.of_ms 1) (fun () -> ());
  Engine.run_all e;
  Alcotest.(check (list int)) "initial batch is FIFO" [ 0; 1; 2 ]
    (List.rev !order);
  (* a second batch, registered after a dispatch has already built the
     internal FIFO cache, must append after the first *)
  List.iter register [ 3; 4 ];
  order := [];
  Engine.schedule_at e (Time.of_ms 2) (fun () -> ());
  Engine.run_all e;
  Alcotest.(check (list int)) "later registrations keep FIFO order"
    [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_observer_registered_mid_dispatch () =
  (* An observer registered from inside an event (or another observer)
     first runs at the following dispatch, never the current one. *)
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule_at e (Time.of_ms 1) (fun () ->
      Engine.on_dispatch e (fun () -> incr hits));
  Engine.schedule_at e (Time.of_ms 2) (fun () -> ());
  Engine.run_all e;
  Alcotest.(check int) "fires only at later boundaries" 1 !hits

(* [halt] from inside an event: that event and its observers finish,
   then nothing more dispatches, the clock stays at the halting event
   (neither [run] nor [run_steps] lands it on [until]), and the flag
   outlives every later call. *)
let test_halt_is_sticky () =
  let e = Engine.create () in
  let fired = ref [] and boundaries = ref 0 in
  Engine.on_dispatch e (fun () -> incr boundaries);
  List.iter
    (fun ms ->
      Engine.schedule_at e (Time.of_ms ms) (fun () ->
          fired := ms :: !fired;
          if ms = 2 then Engine.halt e))
    [ 1; 2; 3; 4 ];
  Engine.run e ~until:(Time.of_ms 10);
  Alcotest.(check (list int)) "run stops after the halting event" [ 1; 2 ]
    (List.rev !fired);
  Alcotest.(check int) "its observers still ran" 2 !boundaries;
  Alcotest.(check int) "clock stays at the halting event" 2_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "later events stay queued" 2 (Engine.pending_events e);
  Alcotest.(check int) "run_steps dispatches nothing" 0
    (Engine.run_steps e ~until:(Time.of_ms 10) ~max_steps:5);
  Engine.run e ~until:(Time.of_ms 10);
  Alcotest.(check bool) "step dispatches nothing" false (Engine.step e);
  Engine.run_all e;
  Alcotest.(check int) "clock never moves again" 2_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "dispatch counter frozen" 2 (Engine.events_dispatched e);
  Alcotest.(check int) "nothing popped" 2 (Engine.pending_events e)

let test_halt_stops_run_steps () =
  let e = Engine.create () in
  List.iter
    (fun ms ->
      Engine.schedule_at e (Time.of_ms ms) (fun () ->
          if ms = 3 then Engine.halt e))
    [ 1; 2; 3; 4; 5 ];
  let n = Engine.run_steps e ~until:(Time.of_ms 10) ~max_steps:50 in
  Alcotest.(check int) "stops at the halting event" 3 n;
  Alcotest.(check int) "clock not advanced to until" 3_000
    (Time.to_us (Engine.now e));
  Alcotest.(check int) "rest left queued" 2 (Engine.pending_events e)

let suite =
  [
    Alcotest.test_case "clock advances with dispatch" `Quick test_clock_advances;
    Alcotest.test_case "run ~until clock semantics pinned" `Quick
      test_run_until_clock_semantics;
    Alcotest.test_case "run_steps pauses at event boundaries" `Quick
      test_run_steps_pauses;
    Alcotest.test_case "on_dispatch observers fire at boundaries" `Quick
      test_on_dispatch_observer;
    Alcotest.test_case "observer registration is FIFO at dispatch" `Quick
      test_observer_registration_fifo;
    Alcotest.test_case "mid-dispatch registration fires next boundary" `Quick
      test_observer_registered_mid_dispatch;
    Alcotest.test_case "schedule_after is relative" `Quick test_schedule_after;
    Alcotest.test_case "run ~until stops and sets clock" `Quick test_run_until;
    Alcotest.test_case "scheduling in the past is rejected" `Quick
      test_no_past_scheduling;
    Alcotest.test_case "same-instant cascades are FIFO" `Quick
      test_cascading_events;
    Alcotest.test_case "seeded determinism" `Quick test_determinism;
    Alcotest.test_case "dispatch counter" `Quick test_events_dispatched;
    Alcotest.test_case "halt stops run and is sticky" `Quick
      test_halt_is_sticky;
    Alcotest.test_case "halt stops run_steps mid-stride" `Quick
      test_halt_stops_run_steps;
  ]
