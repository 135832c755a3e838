(** Single-pass recovery for an ephemeral log.

    The paper argues (§4, and its companion report [9]) that because
    EL keeps the log tiny, the whole log can be read into memory and
    recovery performed in a single pass, instead of the traditional
    two-pass undo/redo.  This module implements that pass and the
    machinery the tests use to validate it:

    - a {!crash} captures what would survive a failure at an instant:
      every durable log block (including stale copies in freed slots —
      a real scan cannot tell them apart) and the stable database
      version as of the completed flushes.  Records are captured
      {e sealed} — stamped with a per-record checksum standing in for
      the CRC a real log would store — and a block whose write was
      torn by the crash carries valid stamps only on the prefix that
      reached the platter;
    - {!recover} replays the image: each block is trusted up to its
      first failing checksum (writes are sequential within a block, so
      everything past the first bad stamp is garbage), torn tails are
      discarded and counted; then a transaction is committed iff a
      COMMIT record of it survives, and for every object the newest
      committed version wins (version numbers order updates even when
      recirculation has shuffled physical order, standing in for the
      paper's timestamps); redo is idempotent on the stable version;
    - {!audit} compares the recovered database with the reference
      committed state captured alongside the crash image.

    Recovery time is proportional to the records scanned, which is why
    the paper equates less disk space with faster recovery; {!stats}
    reports the scan size so benchmarks can quantify that claim. *)

open El_model

type sealed = { payload : Log_record.t; stamp : int }
(** One on-disk record with its checksum stamp as a crash would read
    them.  [stamp = checksum payload] iff the record persisted
    intact. *)

val checksum : Log_record.t -> int
(** Deterministic mix of every logical field — the simulation's stand-
    in for a CRC over the serialized bytes. *)

val seal : Log_record.t -> sealed
(** A validly stamped record. *)

val corrupt_seal : Log_record.t -> sealed
(** A record whose stamp cannot validate — what a torn or corrupted
    sector reads back as.  Exposed for negative tests. *)

type image = {
  blocks : sealed list list;
      (** every durable block's sealed records, in on-disk order
          within each block; block order is immaterial *)
  stable : El_disk.Stable_db.t;  (** stable version at the crash point *)
  reference : (Ids.Oid.t * int) list;
      (** ground truth: newest durably-committed version per object *)
  crash_time : Time.t;
}

val crash : El_sim.Engine.t -> El_core.El_manager.t -> image
(** Captures the crash image of an EL-managed log, now.  A block write
    in service with a torn fault verdict persists only its prefix:
    the suffix is captured with corrupt seals, replacing whatever the
    slot durably held before.

    The [reference] is the manager's acked committed state, adjusted
    for the durability point: a transaction whose COMMIT record
    persisted inside a torn prefix is committed even though its ack
    never fired, so its durable writes are folded in (channel FIFO
    order guarantees they all persisted). *)

type result = {
  recovered : El_disk.Stable_db.t;  (** the database after redo *)
  committed_tids : Ids.Tid.t list;
  records_scanned : int;  (** checksum-valid records scanned *)
  redo_applied : int;  (** data records whose version won *)
  redo_skipped : int;  (** stale copies, uncommitted or aborted records *)
  out_of_range : int;
      (** stable install facts and committed data records naming an
          oid outside [[0, num_objects)], dropped instead of applied —
          a checksum-valid store image may still carry any oid *)
  torn_blocks : int;  (** blocks with a discarded (invalid) tail *)
  torn_records : int;  (** records discarded from torn tails *)
}

val recover : ?obs:El_obs.Obs.t -> image -> result
(** The single pass: validate checksums (each block trusted up to its
    first failing stamp), scan, determine the committed transaction
    set, redo newest committed versions onto a copy of the stable
    version.  With [obs], emits a [Recovery_scan] trace event — plus a
    [Torn_discard] event when any tail was dropped — stamped at the
    image's crash time. *)

val image_of_scan :
  num_objects:int ->
  ?reference:(Ids.Oid.t * int) list ->
  El_store.Log_store.scan ->
  image
(** Lifts a durable-store scan into a crash image: each surviving
    block's valid records are sealed, its discarded (bad-checksum)
    entries become corrupt seals so the torn counters match a
    simulated crash of the same state, and the stable version is
    rebuilt from the persisted install facts by
    {!El_disk.Stable_db.of_facts}.  [reference] defaults to
    empty — a real restart has no ground truth; pass one to {!audit}
    against in-simulation expectations.  [crash_time] is {!Time.zero}:
    a scanned image carries no clock.  Install facts naming an oid
    outside [[0, num_objects)] are dropped, uncounted (the image has
    nowhere to count them; {!recover_scan} does).  Each discarded
    entry costs one seal, so on an untrusted image (a header may claim
    any count) prefer {!recover_scan}. *)

val recover_scan :
  ?obs:El_obs.Obs.t -> num_objects:int -> El_store.Log_store.scan -> result
(** Replays a scan already in hand: the same result as {!recover} of
    {!image_of_scan}, without lifting the scan into seals first — the
    scan's discarded entries are counted, not materialized, so the
    work stays bounded on any image.  A restart pairs it with
    {!El_store.Log_store.attach_with_scan}, so the image is read and
    decoded once. *)

val recover_store :
  ?obs:El_obs.Obs.t ->
  ?upto:int ->
  num_objects:int ->
  El_store.Backend.t ->
  result
(** Scans the backend and runs {!recover_scan} on the result.  [upto]
    bounds the scan at a crash mark
    ({!El_core.El_manager.persist_crash_mark}), replaying the image as
    it stood at that instant. *)

type audit = {
  ok : bool;
  missing : (Ids.Oid.t * int) list;
      (** committed versions absent or stale in the recovered state *)
  spurious : (Ids.Oid.t * int) list;
      (** recovered versions that were never durably committed *)
}

val audit : image -> result -> audit
(** Compares against the image's reference.  [ok] is atomicity and
    durability in one bit: every durably-committed update recovered,
    nothing else. *)

val pp_audit : Format.formatter -> audit -> unit
