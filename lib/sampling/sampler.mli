(** Seeded sampling estimators of the paper's predictability quantities
    over a [Q x I] cell space addressed by index — the scale-past-
    exhaustive layer: where {!Quantify.evaluate} materialises every
    [T_p(q, i)] cell, this module estimates Pr/SIPr/IIPr (Defs. 3-5), the
    mean execution time, and pWCET-style BCET/WCET tails from a sampled
    subset, each with a confidence interval ({!Estimate.t}).

    Determinism contract: results are a pure function of
    [(spec, n_states, n_inputs, time)] — bit-identical across
    [?jobs] 1/2/4/8 and across repeated runs. Every cell draw comes from
    a stream keyed by its {e draw index} ({!Prelude.Rng.split_key}),
    never from worker identity, and the bootstrap streams are keyed
    separately, so scheduling cannot reach any estimate. *)

type spec = {
  n_cells : int;  (** Monte-Carlo [(q, i)] draws (Pr, mean, tails) *)
  per_stratum : int;
      (** state draws per input stratum (SIPr) and input draws per state
          stratum (IIPr) *)
  confidence : float;  (** two-sided CI coverage target, e.g. [0.99] *)
  resamples : int;  (** bootstrap resamples behind each ratio/tail CI *)
  tail_fraction : float;
      (** fraction of samples treated as the tail by the
          peaks-over-threshold estimator *)
  exceed_p : float;
      (** per-run exceedance probability of the extrapolated tail
          quantile *)
  seed : int;
}

val default : spec
(** 384 cells, 32 per stratum, 99% confidence, 200 resamples, 25% tails,
    [1e-3] exceedance. *)

type cell = {
  q : int;  (** state index, in [0, n_states) *)
  i : int;  (** input index, in [0, n_inputs) *)
  t : int;  (** the observed [T_p(q, i)] *)
}

type result = {
  spec : spec;
  n_states : int;
  n_inputs : int;
  cells : cell array;  (** the Monte-Carlo draws, in draw order *)
  pr : Estimate.t;  (** Def. 3 estimate (bootstrap CI) *)
  sipr : Estimate.t;  (** Def. 4, stratified by input (bootstrap CI) *)
  iipr : Estimate.t;  (** Def. 5, stratified by state (bootstrap CI) *)
  mean : Estimate.t;  (** mean execution time (normal-approximation CI) *)
  bcet_tail : Estimate.t;  (** extrapolated lower tail ({!Tail.Lower}) *)
  wcet_tail : Estimate.t;  (** extrapolated upper tail ({!Tail.Upper}) *)
  evals : int;  (** timer evaluations performed *)
}

val run :
  ?jobs:int -> spec:spec -> n_states:int -> n_inputs:int ->
  time:(int -> int -> int) -> unit -> result
(** Draw and evaluate the sampled cells and both stratified passes in
    one pool of [?jobs] worker domains (default
    {!Prelude.Parallel.default_jobs}), then compute every estimate
    sequentially. [time q i] must be positive and a pure function of its
    indices.
    @raise Invalid_argument on non-positive dimensions, invalid spec
    fields, or a non-positive execution time. *)

(** {2 Bootstrap estimators}

    {!run} computes its ratio estimates with these. Each replicate folds
    min/max straight over the drawn indices and materialises no resampled
    array, yet makes the same draws in the same order as the reference
    {!Estimate.bootstrap} over materialised resamples — so both give
    bit-identical estimates on the same [rng]. *)

val pr_estimate :
  rng:Prelude.Rng.t -> resamples:int -> confidence:float -> int array ->
  Estimate.t
(** The Def. 3 estimate over sampled times: min/max as the point estimate,
    basic bootstrap over [resamples] with-replacement resamples as the
    interval. Equal to {!Estimate.bootstrap} with a min/max [stat].
    @raise Invalid_argument on an empty array, negative [resamples], or a
    confidence outside (0, 1). *)

val stratified_estimate :
  rng:Prelude.Rng.t -> resamples:int -> confidence:float ->
  int array array -> Estimate.t
(** The Def. 4/5 estimate over strata of sampled times: the minimum over
    strata of each stratum's min/max. Each replicate resamples within
    every stratum, in stratum order; the strata themselves are exhaustive
    and are not resampled. [strata] must be non-empty, and so must each
    stratum.
    @raise Invalid_argument on negative [resamples] or a confidence
    outside (0, 1). *)

val spec_to_json : spec -> Prelude.Json.t

val to_json : result -> Prelude.Json.t
(** One object per analysis: dimensions, seed, spec, and one
    {!Estimate.to_json} object ([estimate]/[ci_lo]/[ci_hi]/[confidence]/
    [n_samples]/[method]) per quantity, plus the evaluation count. *)
