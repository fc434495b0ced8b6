type side =
  | Upper
  | Lower

(* One extrapolated tail quantile of a sample given as counts over an
   ascending-sorted float array (upper side; the lower side enters
   negated): the sample is [counts.(j)] copies of [sorted.(j)], so walking
   [j] upward visits it in ascending order without materialising or
   sorting it. The counts sum to [Array.length sorted].

   Peaks-over-threshold with an exponential excess model — the simplest
   pWCET-style estimator: the threshold u is the (1 - tail_fraction)
   empirical quantile, exceedances over u are modelled Exp(mean excess m),
   and the quantile exceeded with probability p extrapolates to
   u + m * ln(k / (n * p)) where k is the exceedance count. Degenerate
   tails (no strict exceedances — e.g. a constant distribution) and
   extrapolations that would fall inside the observed support clamp to the
   observed maximum: the estimator never claims a worst case better than
   one it has already seen.

   u interpolates between ranks r and r' exactly as
   Prelude.Stats.quantile_sorted does, and the excess sum adds [x - u]
   once per copy in ascending order, so the result is bit-identical to
   the same estimator run on the materialised, sorted sample. *)
let extrapolate ~tail_fraction ~exceed_p sorted counts =
  let n = Array.length sorted in
  let h = (1. -. tail_fraction) *. float_of_int (n - 1) in
  let r = int_of_float (Float.floor h) in
  let r' = Stdlib.min (n - 1) (r + 1) in
  let x_r = ref 0. and x_r' = ref 0. and observed_max = ref 0. in
  (* [below] counts the copies before [j]: the last [j] with
     [below <= r] holds rank [r]. Plain loops, not closures, keep the
     float accumulators unboxed. *)
  let below = ref 0 in
  for j = 0 to n - 1 do
    let c = counts.(j) in
    if c > 0 then begin
      let x = sorted.(j) in
      if !below <= r then x_r := x;
      if !below <= r' then x_r' := x;
      observed_max := x;
      below := !below + c
    end
  done;
  let u = !x_r +. ((h -. float_of_int r) *. (!x_r' -. !x_r)) in
  let k = ref 0 and excess_sum = ref 0. in
  for j = 0 to n - 1 do
    let x = sorted.(j) in
    if x > u then begin
      let c = counts.(j) in
      k := !k + c;
      for _ = 1 to c do
        excess_sum := !excess_sum +. (x -. u)
      done
    end
  done;
  if !k = 0 then !observed_max
  else
    let m = !excess_sum /. float_of_int !k in
    let q =
      u +. (m *. log (float_of_int !k /. (float_of_int n *. exceed_p)))
    in
    Float.max q !observed_max

let validate ~tail_fraction ~exceed_p =
  if
    Float.is_nan tail_fraction || tail_fraction <= 0. || tail_fraction >= 1.
  then invalid_arg "Tail.estimate: tail_fraction must be in (0, 1)";
  if Float.is_nan exceed_p || exceed_p <= 0. || exceed_p >= 1. then
    invalid_arg "Tail.estimate: exceed_p must be in (0, 1)"

let estimate ~rng ~resamples ~confidence ~tail_fraction ~exceed_p side
    samples =
  validate ~tail_fraction ~exceed_p;
  let n = Array.length samples in
  if n = 0 then invalid_arg "Tail.estimate: empty sample array";
  if resamples < 0 then invalid_arg "Tail.estimate: resamples must be >= 0";
  let sign = match side with Upper -> 1. | Lower -> -1. in
  let oriented = Array.map (fun t -> sign *. float_of_int t) samples in
  Array.sort Float.compare oriented;
  (* One counts buffer for every replicate. All ones is the sample
     itself: the point estimate takes the same path as the replicates. *)
  let counts = Array.make n 1 in
  let value = extrapolate ~tail_fraction ~exceed_p oriented counts in
  let replicates =
    Array.init resamples (fun _ ->
        Array.fill counts 0 n 0;
        for _ = 1 to n do
          let j = Prelude.Rng.int rng n in
          counts.(j) <- counts.(j) + 1
        done;
        extrapolate ~tail_fraction ~exceed_p oriented counts)
  in
  let e = Estimate.of_replicates ~confidence ~n ~value replicates in
  match side with
  | Upper -> e
  | Lower ->
    (* Undo the negation: the oriented upper tail of -t is the lower tail
       of t, with the interval endpoints swapped. *)
    { e with
      value = -.e.Estimate.value;
      ci =
        { Estimate.lo = -.e.Estimate.ci.Estimate.hi;
          hi = -.e.Estimate.ci.Estimate.lo;
          confidence = e.Estimate.ci.Estimate.confidence } }
