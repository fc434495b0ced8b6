(** Extreme-value (pWCET-style) tail estimation of BCET/WCET from sampled
    execution times.

    The estimator is peaks-over-threshold with an exponential excess
    model — the simplest member of the pWCET family: take the observed
    tail beyond the [(1 - tail_fraction)] empirical quantile, fit its
    mean excess, and extrapolate the execution time exceeded with
    probability [exceed_p] per run. The point estimate is clamped to the
    observed extreme (it never reports a worst case better than one it
    has seen), and the confidence interval is a basic bootstrap over
    resampled tails ({!Estimate.of_replicates}).

    The samples are sorted once. Each bootstrap replicate is a reused
    counts array over the sorted samples, filled by [n] draws of
    [Prelude.Rng.int rng n]; walking it upward visits the replicate in
    ascending order, so no replicate is materialised or sorted. The
    result is bit-identical to extrapolating each materialised, sorted
    replicate, and the point estimate takes the same path with every
    count 1.

    [Lower] estimates the BCET side by negating the samples, estimating
    the upper tail, and mirroring the interval back. *)

type side =
  | Upper  (** WCET side: extrapolates beyond the observed maximum *)
  | Lower  (** BCET side: extrapolates below the observed minimum *)

val validate : tail_fraction:float -> exceed_p:float -> unit
(** Shared parameter validation ({!Sampler.run} calls it up front).
    @raise Invalid_argument if either is outside (0, 1). *)

val estimate :
  rng:Prelude.Rng.t -> resamples:int -> confidence:float ->
  tail_fraction:float -> exceed_p:float -> side -> int array -> Estimate.t
(** Deterministic given [rng]. For [Upper] the point estimate is [>=] the
    observed maximum; for [Lower] it is [<=] the observed minimum.
    Degenerate tails (constant samples) collapse to the observed extreme.
    @raise Invalid_argument on an empty sample array, negative
    [resamples], or [tail_fraction]/[exceed_p]/[confidence] outside
    (0, 1). *)
