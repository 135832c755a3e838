(** The event-driven simulation engine.

    An engine owns a simulated clock, an event queue and a seeded
    pseudo-random state.  Components schedule closures at absolute or
    relative simulated times; {!run} dispatches them in time order
    (FIFO among equals) while advancing the clock.  Everything is
    deterministic for a given seed, which the reproduction harness
    relies on. *)

open El_model

type t

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose clock reads {!Time.zero}.
    The default seed is 42. *)

val now : t -> Time.t
(** Current simulated time. *)

val rng : t -> Random.State.t
(** The engine's private random state; all stochastic choices in a
    simulation must draw from it so that runs are reproducible. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the simulated past. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_after t delay f] is
    [schedule_at t (Time.add (now t) delay) f]. *)

val run : t -> until:Time.t -> unit
(** Dispatches events in order until the queue is empty or the next
    event is strictly later than [until].  Every dispatched event has
    time at most [until], so afterwards the clock reads exactly
    [until] — it is advanced there even when the queue empties early,
    and it never moves backwards (a call with [until] in the past
    dispatches nothing and leaves the clock unchanged).  After a
    {!halt} it dispatches nothing more and leaves the clock where it
    is. *)

val run_steps : t -> until:Time.t -> max_steps:int -> int
(** [run_steps t ~until ~max_steps] dispatches at most [max_steps]
    events with time at most [until] and returns how many were
    dispatched.  A return value smaller than [max_steps] means no
    eligible event remained, in which case the clock is advanced to
    [until] exactly as {!run} would; otherwise the clock rests at the
    last dispatched event, so callers can inspect a mid-run state at a
    deterministic event boundary (the crash-sweep harness pauses
    here).  After a {!halt} it dispatches nothing more and never moves
    the clock.  Raises [Invalid_argument] if [max_steps] is negative. *)

val run_all : t -> unit
(** Dispatches every remaining event. *)

val step : t -> bool
(** Dispatches a single event; [false] if the queue was empty or the
    engine is halted. *)

val halt : t -> unit
(** Stops the engine for good.  Called from inside an event, it lets
    that event and its dispatch observers finish; then {!run},
    {!run_steps}, {!run_all} and {!step} dispatch nothing more, and
    the clock stays at the event that halted.  The flag is sticky:
    nothing clears it.  Pending events stay queued and unrun.  The
    minimum-space search halts a probe at its first kill, since one
    kill already decides the probe is infeasible. *)

val on_dispatch : t -> (unit -> unit) -> unit
(** [on_dispatch t f] registers [f] to run after every dispatched
    event, at the event boundary (the event's own effects, including
    anything it scheduled, are complete).  Observers run in
    registration order (FIFO) and must not schedule, pop or otherwise
    perturb the simulation if determinism is to be preserved — they
    are meant for invariant audits, trace recording and progress
    accounting.  Registration is O(1); an observer registered during a
    dispatch first runs at the following dispatch. *)

val events_dispatched : t -> int
(** Number of events dispatched so far (an activity measure used by
    tests and benchmarks). *)

val pending_events : t -> int
