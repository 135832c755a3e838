open El_model

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Time.t;
  rng : Random.State.t;
  mutable dispatched : int;
  mutable observers_rev : (unit -> unit) list;  (* newest first *)
  mutable observers : (unit -> unit) array;  (* FIFO cache of the above *)
  mutable observers_stale : bool;
  mutable halted : bool;  (* sticky: set by [halt], never cleared *)
}

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Time.zero;
    rng = Random.State.make [| seed |];
    dispatched = 0;
    observers_rev = [];
    observers = [||];
    observers_stale = false;
    halted = false;
  }

let now t = t.clock
let rng t = t.rng

let schedule_at t time f =
  if Time.(time < t.clock) then
    invalid_arg "Engine.schedule_at: time is in the past";
  Event_queue.push t.queue ~time:(Time.to_us time) f

let schedule_after t delay f = schedule_at t (Time.add t.clock delay) f

(* O(1) per registration: the FIFO array is rebuilt lazily at the next
   dispatch, so a burst of n registrations costs one O(n) reversal
   rather than the O(n^2) of appending to the tail each time. *)
let on_dispatch t f =
  t.observers_rev <- f :: t.observers_rev;
  t.observers_stale <- true

let dispatch t time f =
  t.clock <- Time.of_us time;
  t.dispatched <- t.dispatched + 1;
  (* refresh before running the event so an observer registered from
     inside it (or from another observer) first fires at the *next*
     boundary — the cache in hand stays fixed for this dispatch *)
  if t.observers_stale then begin
    t.observers <- Array.of_list (List.rev t.observers_rev);
    t.observers_stale <- false
  end;
  f ();
  Array.iter (fun o -> o ()) t.observers

let halt t = t.halted <- true

let step t =
  if t.halted then false
  else
    match Event_queue.pop t.queue with
    | None -> false
    | Some (time, f) ->
      dispatch t time f;
      true

(* Dispatch at most [max_steps] events with time <= [limit] (in us);
   returns how many were dispatched. *)
let run_bounded t ~limit ~max_steps =
  let dispatched = ref 0 in
  let continue = ref true in
  while !continue && !dispatched < max_steps && not t.halted do
    match Event_queue.peek_time t.queue with
    | Some time when time <= limit -> (
      match Event_queue.pop t.queue with
      | Some (time, f) ->
        dispatch t time f;
        incr dispatched
      | None -> continue := false)
    | Some _ | None -> continue := false
  done;
  !dispatched

let run t ~until =
  let limit = Time.to_us until in
  ignore (run_bounded t ~limit ~max_steps:max_int);
  if (not t.halted) && Time.(t.clock < until) then t.clock <- until

let run_steps t ~until ~max_steps =
  if max_steps < 0 then invalid_arg "Engine.run_steps: negative max_steps";
  let limit = Time.to_us until in
  let n = run_bounded t ~limit ~max_steps in
  (* Fewer dispatches than asked means the horizon was exhausted: land
     the clock exactly on [until], as {!run} does — unless a halt ended
     the dispatching, which leaves the clock at the halting event. *)
  if n < max_steps && (not t.halted) && Time.(t.clock < until) then
    t.clock <- until;
  n

let run_all t = while step t do () done
let events_dispatched t = t.dispatched
let pending_events t = Event_queue.length t.queue
