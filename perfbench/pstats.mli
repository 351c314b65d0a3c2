(** Order statistics over timing samples. *)

(** [quantile xs p] is the nearest-rank [p]-quantile ([0 <= p <= 1]) of
    [xs]: the smallest sample with at least [p * n] of the [n] samples at
    or below it. It is always a measured sample, never an interpolation
    between a fast and a slow one (the median of an even count is the
    lower middle sample). Raises [Invalid_argument] on an empty array or
    a [p] outside [[0, 1]]. [xs] is not modified. *)
val quantile : float array -> float -> float

(** [median xs] is [quantile xs 0.5]. *)
val median : float array -> float

(** [beyond n p] is how many of [n] samples rank above the
    [p]-quantile. *)
val beyond : int -> float -> int

(** [tail n] is the highest of p50, p90, p99 and p99.9 with at least ten
    of [n] samples beyond it, as [(label, p)]; [None] when even p50 has
    fewer than ten beyond it. *)
val tail : int -> (string * float) option

(** [representative xs] is the time of one class of repeated timings
    (one input on one path): the fastest of them. The machine's slow
    stretches only ever add time, and the fastest repeat is the one they
    slowed least. Raises [Invalid_argument] on an empty array. *)
val representative : float array -> float

(** [mean_representative groups] is the mean of {!representative} over
    the groups. Raises [Invalid_argument] when there is no group or a
    group is empty. *)
val mean_representative : float array list -> float
