(** A log-scale histogram for long-tailed simulator quantities:
    commit latency, flush oid distance, queue depths.

    Interior bucket [i] (1-based) covers
    [lowest * base^(i-1), lowest * base^i); bucket [0] is the
    underflow bucket (everything below [lowest], including negatives)
    and the bucket after the last interior one is the overflow bucket.  Boundaries are
    computed by iterated multiplication, so an observation exactly on
    a boundary lands deterministically in the bucket whose lower bound
    it equals. *)

type t

val create :
  ?name:string -> ?base:float -> ?lowest:float -> ?buckets:int -> unit -> t
(** Defaults: base 2, lowest 1, 32 buckets — covering [1, 2^32) with
    one bucket per doubling.  Raises [Invalid_argument] for
    [base <= 1], [lowest <= 0] or [buckets <= 0]. *)

val name : t -> string
val observe : t -> float -> unit
(** NaN observations are ignored. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val bucket_index : t -> float -> int
(** Index into the interior counters plus underflow (0) and overflow. *)

val bucket_count : t -> int -> int

val bucket_bounds : t -> int -> float * float
(** [lo, hi) of a bucket; underflow is [(neg_infinity, lowest)],
    overflow [(top, infinity)]. *)

val merge : ?name:string -> t -> t -> t
(** A fresh histogram holding both operands' observations.  Raises
    [Invalid_argument] unless both share base, lowest and bucket
    count. *)

val percentile : t -> float -> float
(** [percentile t p] is an upper-bound estimate of the p-quantile:
    the upper boundary of the bucket in which the quantile falls,
    clamped to the observed maximum.  0 when empty. *)

val nonzero_buckets : t -> (float * float * int) list
(** [(lo, hi, count)] for every non-empty bucket, ascending — the
    export representation. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
