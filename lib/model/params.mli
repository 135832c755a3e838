(** Fixed simulator parameters from §3 of the paper.

    These are the values the paper holds constant across all
    experiments.  They are exposed as ordinary values (not hard-wired
    into the algorithms) so that tests can exercise other settings,
    but the defaults below reproduce the published configuration. *)

val block_payload : int
(** Usable bytes per disk block: 2000 (a 2048-byte block minus 48
    bytes of bookkeeping). *)

val head_tail_gap : int
(** [k], the minimum number of blocks that must stay free between a
    generation's tail and head: 2. *)

val buffers_per_generation : int
(** Disk-block buffers provided per generation: 4. *)

val tx_record_size : int
(** Bytes for a BEGIN or COMMIT (or ABORT) tx log record: 8. *)

val epsilon : Time.t
(** Delay between a transaction's last data record and its COMMIT
    record: 1 ms. *)

val tau_disk_write : Time.t
(** Time to transfer a buffer to disk at the tail of the log: 15 ms. *)

val num_objects : int
(** Objects in the database: 10^7. *)

val fw_bytes_per_tx : int
(** Main-memory cost the paper charges the firewall method per
    transaction in the system: 22 bytes. *)

val el_bytes_per_tx : int
(** Main-memory cost of ephemeral logging per transaction: 40 bytes. *)

val el_bytes_per_object : int
(** Main-memory cost of ephemeral logging per updated-but-unflushed
    object: 40 bytes. *)
