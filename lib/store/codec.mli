(** On-image wire format for the durable log.

    A store image is a sequence of {e segments}.  Each segment is a
    52-byte header followed by [count] fixed-size 49-byte entries:

    {v
    header  := "ELSG" epoch gen slot seq count cksum      (52 bytes)
    entry   := tag tid oid version size timestamp cksum   (49 bytes)
    v}

    All integers are little-endian int64.  Both checksums are FNV-1a-64
    over the preceding bytes of their struct, so a torn tail — a
    partial header or a partially written entry — is detected at the
    first bad checksum and everything after it is discarded, mirroring
    the simulator's per-record torn-write model. *)

type entry =
  | Record of El_model.Log_record.t
  | Stable of { oid : El_model.Ids.Oid.t; version : int }
      (** A stable-DB install fact, persisted by the flush array when a
          transfer completes.  Lives in segments with [gen = -1]. *)

val entry_bytes : int
(** 49 *)

val header_bytes : int
(** 52 *)

type header = {
  h_epoch : int;  (** attach generation — bumps on every [attach] *)
  h_gen : int;  (** log generation, or [-1] for stable segments *)
  h_slot : int;
  h_seq : int;  (** global append sequence number, strictly increasing *)
  h_count : int;  (** entries following the header *)
}

val fnv1a_64 : Bytes.t -> pos:int -> len:int -> int64

val encode_entry_into : ?corrupt:bool -> Bytes.t -> pos:int -> entry -> unit
(** Encodes the entry in place at [pos] — the store's segment writer
    packs a whole segment into one reused scratch buffer this way, so
    steady-state appends allocate nothing.  [corrupt] flips a checksum
    bit — used by tests and by torn-suffix persistence to write a
    deliberately invalid entry. *)

val encode_entry : ?corrupt:bool -> entry -> Bytes.t
(** Fresh-buffer convenience over {!encode_entry_into}. *)

val decode_entry : Bytes.t -> pos:int -> entry option
(** [None] when the checksum fails, the tag is unknown, or a field lies
    outside what {!encode_entry_into} writes (a negative id or
    timestamp, a negative data version, a record size below 1).
    Raises [Invalid_argument] only if fewer than {!entry_bytes} bytes
    remain. *)

val encode_header_into : Bytes.t -> pos:int -> header -> unit

val encode_header : header -> Bytes.t

val decode_header : Bytes.t -> pos:int -> header option
(** [None] on a bad magic or checksum, or on a [count] that is negative
    or whose segment byte length would overflow an [int] — a scan
    treats all of these as the torn tail.  Raises [Invalid_argument]
    only if fewer than {!header_bytes} bytes remain. *)
