(** The differential oracle: an in-memory reference model of a
    transactional log, interposed between the workload generator and a
    real manager.

    The model shadows every call crossing the
    {!El_workload.Generator.sink} boundary (via
    {!El_shard.Shard_group.prepare}'s [wrap_shard_sink]) and every
    kill (via [on_shard_kill]).  It maintains the simplest possible
    semantics — a transaction is committed exactly when its commit is
    acknowledged, and the committed database state is, per object, the
    newest version written by a committed transaction — and records
    any protocol violation it observes (acknowledgement of a killed or
    unknown transaction, a write by a terminated one, ...).

    Once the run has settled (generator finished, manager drained,
    engine run dry), the real manager must agree with the model
    exactly; {!check_el} and {!check_settled_stable} enforce that,
    raising {!Auditor.Audit_failure} on divergence. *)

open El_model

type t

val create : unit -> t

val wrap : t -> El_workload.Generator.sink -> El_workload.Generator.sink
(** Observer sink: records each call in the model, then forwards it to
    the wrapped sink.  Pass as [Shard_group.prepare ~wrap_shard_sink]. *)

val kill : t -> Ids.Tid.t -> unit
(** Kill notification.  Pass as [Shard_group.prepare ~on_shard_kill]. *)

val committed_count : t -> int
(** Transactions whose commit acknowledgement has fired. *)

val violations : t -> string list
(** Protocol violations observed so far, oldest first; empty against a
    correct manager. *)

val check_el : t -> El_core.El_manager.t -> unit
(** Settled-state comparison: the manager's durably-committed
    reference state and acknowledged-commit count must equal the
    model's.  Raises {!Auditor.Audit_failure} on divergence. *)

val check_settled_stable : t -> El_disk.Stable_db.t -> unit
(** Settled-state comparison: the stable database must hold exactly
    the model's newest committed version of every committed object and
    nothing else — i.e. every acknowledged commit was flushed, no
    uncommitted write leaked.  Only valid once all pending flushes
    have completed (manager drained, engine run dry).  Raises
    {!Auditor.Audit_failure} on divergence. *)
