(** Descriptive statistics over observed samples (e.g. execution times). *)

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  median : float;
}

val summarize : float list -> summary
(** [stddev] is the {e sample} (Bessel-corrected, [n - 1] denominator)
    standard deviation: callers treat observed execution times as a sample
    of a wider behaviour space, not as the full population. For a single
    sample it is 0.
    @raise Invalid_argument on the empty list. *)

val summarize_ints : int list -> summary

val min_int_list : int list -> int
(** @raise Invalid_argument on the empty list. *)

val max_int_list : int list -> int
(** @raise Invalid_argument on the empty list. *)

val quantile : float list -> float -> float
(** [quantile samples p] is the empirical [p]-quantile with linear
    interpolation between order statistics (R/NumPy "type 7"): [p = 0] is
    the minimum, [p = 1] the maximum, [p = 0.5] the median.
    @raise Invalid_argument on the empty list or [p] outside [0, 1]. *)

val quantile_sorted : float array -> float -> float
(** {!quantile} over an array {e already sorted ascending} (unchecked) —
    the allocation-free form the bootstrap intervals use on their sorted
    replicate statistics.
    @raise Invalid_argument on an empty array or [p] outside [0, 1]. *)

val coefficient_of_variation : summary -> float
(** [stddev / mean]; zero variability means a perfectly repeatable quantity. *)

val spread : summary -> float
(** [max - min]. *)

val pp_summary : Format.formatter -> summary -> unit
