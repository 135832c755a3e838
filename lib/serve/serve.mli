(** [el-sim serve]: a durable-log service over a real disk image.

    The server wires one log manager (EL by default) to a
    {!El_store.Backend.file} image and accepts transactions over a
    line protocol — from stdin or a Unix-domain socket.  The plant is
    the simulator's own ({!El_harness.Experiment.build_instance} over
    the attached store, ten 1 ms flush drives), driven through its
    erased sink and drain.  Each command
    steps the simulation engine until every consequence has settled,
    so a response is only written after the store has absorbed (and
    fsynced) everything the command caused.  In particular
    [ok committed <tid>] is an ack {e at the durability point}: the
    COMMIT record is on the platter before the line is on the wire,
    which is what the crash-kill tests exploit — a SIGKILLed server
    must recover every transaction it acked from [disk.img] alone.

    {2 Protocol}

    One command per line, case-insensitive verbs, integer arguments:

    - [BEGIN <tid>] → [ok begun <tid>]
    - [WRITE <tid> <oid> <version> [<size>]] →
      [ok written <tid> <oid> <version>]  (size defaults to 100 bytes)
    - [COMMIT <tid>] → [ok committed <tid>], or [err killed <tid>] if
      the manager killed the transaction for log space
    - [ABORT <tid>] → [ok aborted <tid>]
    - [READ <oid>] → [ok read <oid> <version>] — the durable version
      of the object as recovered at startup (0 if never written).
      A commit flushed to the stable database and recirculated out of
      the log is absent from [RECOVERED]'s tid list but present here —
      this is the right probe for "was my acked write kept?"
    - [RECOVERED] → [recovered <n> <tid>...] — the committed
      transactions still in the log at startup, ascending (a flushed
      commit's effects live on in the stable state; see [READ])
    - [STAT] → [stat backend=<name> pwrites=<n> barriers=<n>
      bytes=<n> recovered=<n> commits=<n> fsyncs_per_commit=<f>
      group_fsync=<on|off>]
    - [QUIT] → [bye], then the connection (or the stdio server)
      closes

    Anything else answers [err <reason>]; a malformed argument or a
    protocol misuse (e.g. beginning a tid twice) answers [err] without
    disturbing the server. *)

open El_model

type config = {
  image : string;  (** path to the disk image *)
  fresh : bool;
      (** [true] truncates the image; [false] (default) attaches to
          whatever committed state it holds and recovers it *)
  kind : El_harness.Experiment.manager_kind;
  num_objects : int;
  group_fsync : bool;
      (** [true] batches the store's barriers: segments appended while
          a COMMIT settles share one fsync, issued before the commit
          ack.  The ack-durability contract is unchanged — only
          unacked work can be lost to a crash.  [false] (default)
          fsyncs every appended segment. *)
}

val default_config : image:string -> config
(** EL with two 32-block generations, 100_000 objects, attach,
    per-segment fsync. *)

type t

val start : config -> t
(** Opens (or creates) the image, recovers its committed state, and
    wires a fresh manager to it on a new store epoch — prior epochs'
    blocks stay durable and are never shadowed by the new run.  The
    attach and the recovery share one read and one scan of the image
    ({!El_store.Log_store.attach_with_scan}); a torn tail is cut away
    before recovery sees it.
    Raises [Unix.Unix_error] if the image path is unusable. *)

val recovered : t -> El_recovery.Recovery.result
(** The committed state found in the image when {!start} attached. *)

val exec : t -> string -> string option * bool
(** One protocol step: parse a command line, run it to quiescence,
    return the response ([None] for a blank line) and whether the
    session should continue ([false] after [QUIT]).  Exposed for
    in-process tests; the servers below are thin loops over it. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serves one session: reads commands until EOF or [QUIT], writing
    and flushing one response line per command. *)

val serve_socket : t -> socket_path:string -> unit
(** Binds a Unix-domain socket (unlinking any stale file first) and
    serves clients sequentially, forever — the caller terminates the
    process.  Each accepted connection is one {!serve_channel}
    session; [QUIT] ends the connection, not the server. *)

val close : t -> unit
(** Closes the image's file descriptor.  The store needs no shutdown
    protocol beyond this — every acked write is already durable. *)

val tid_of_ack : t -> Ids.Tid.t -> bool
(** Whether this server acked a commit of [tid] in this session (not
    counting recovered history).  For tests. *)
