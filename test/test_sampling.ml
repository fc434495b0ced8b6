(* Tests for the sampling layer and the Rng.int bias fix: chi-square
   uniformity (the old modulo reduction must fail it, the rejection
   sampler must pass), sequence compatibility for small bounds, keyed
   substreams, histogram edge cases, quantiles, CI constructions, tail
   extrapolation, and the sampler's determinism/containment contract. *)

(* --- The old biased Rng.int, reconstructed locally ----------------------- *)

(* Same splitmix64 core as Prelude.Rng, so the two reductions below draw
   from the identical underlying stream and differ only in how a raw draw
   becomes an int in [0, bound). *)
let splitmix_next state =
  let open Int64 in
  let s = add !state 0x9E3779B97F4A7C15L in
  state := s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let biased_int state bound =
  let v = Int64.logand (splitmix_next state) Int64.max_int in
  Int64.to_int (Int64.rem v (Int64.of_int bound))

(* Bound 3 * 2^60: 2^63 = 2 * bound + 2 * 2^60, so under modulo reduction
   the first two thirds of the range are hit 3/8 of the time each and the
   last third only 2/8 — a 1.5x skew, flagrant enough for a chi-square
   over three buckets to reject with a deterministic seed. *)
let skewed_bound = 3 * (1 lsl 60)

let chi_square draws =
  let buckets = Array.make 3 0 in
  List.iter
    (fun d ->
       let b = d / (1 lsl 60) in
       buckets.(b) <- buckets.(b) + 1)
    draws;
  let n = float_of_int (List.length draws) in
  let expected = n /. 3. in
  Array.fold_left
    (fun acc o ->
       let d = float_of_int o -. expected in
       acc +. (d *. d /. expected))
    0. buckets

(* 99.9th percentile of chi-square with 2 degrees of freedom. *)
let critical = 13.816

let test_chi_square_rejects_biased () =
  let state = ref 42L in
  let draws = List.init 3000 (fun _ -> biased_int state skewed_bound) in
  let stat = chi_square draws in
  Alcotest.(check bool)
    (Printf.sprintf "modulo reduction fails uniformity (chi2 %.1f > %.3f)"
       stat critical)
    true (stat > critical)

let test_chi_square_accepts_fixed () =
  let rng = Prelude.Rng.make 42 in
  let draws = List.init 3000 (fun _ -> Prelude.Rng.int rng skewed_bound) in
  let stat = chi_square draws in
  Alcotest.(check bool)
    (Printf.sprintf "rejection sampling passes uniformity (chi2 %.1f < %.3f)"
       stat critical)
    true (stat < critical)

(* For small bounds the rejection zone is never hit, so the fixed Rng.int
   emits the exact sequence the old one did — the reason no existing
   seeded test needed re-pinning. *)
let test_small_bound_sequences_unchanged () =
  let rng = Prelude.Rng.make 7 in
  let state = ref 7L in
  for k = 1 to 200 do
    Alcotest.(check int)
      (Printf.sprintf "draw %d" k)
      (biased_int state 1000) (Prelude.Rng.int rng 1000)
  done

let test_int_rejects_nonpositive_bound () =
  let rng = Prelude.Rng.make 1 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (Prelude.Rng.int rng 0));
  Alcotest.check_raises "bound -3"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (Prelude.Rng.int rng (-3)))

(* --- Keyed substreams ---------------------------------------------------- *)

let stream rng n = List.init n (fun _ -> Prelude.Rng.int rng 1_000_000)

let test_split_key_reproducible () =
  let a = Prelude.Rng.split_key (Prelude.Rng.make 5) 37 in
  let b = Prelude.Rng.split_key (Prelude.Rng.make 5) 37 in
  Alcotest.(check (list int)) "equal (state, key) gives equal streams"
    (stream a 50) (stream b 50)

let test_split_key_distinct_keys () =
  let parent = Prelude.Rng.make 5 in
  let streams =
    List.init 16 (fun k -> stream (Prelude.Rng.split_key parent k) 20)
  in
  let distinct = Prelude.Listx.uniq Stdlib.compare streams in
  Alcotest.(check int) "16 keys give 16 distinct streams" 16
    (List.length distinct)

let test_split_key_does_not_advance () =
  let a = Prelude.Rng.make 9 and b = Prelude.Rng.make 9 in
  ignore (Prelude.Rng.split_key a 123);
  Alcotest.(check (list int)) "parent stream unaffected by split_key"
    (stream b 20) (stream a 20)

(* --- Histogram edge cases ------------------------------------------------ *)

let test_render_never_hides_nonzero_bin () =
  (* 1000 samples in the first bin, 1 in the last: proportional scaling
     would truncate the single-sample bar to zero characters. *)
  let samples = List.init 1000 (fun _ -> 0) @ [ 100 ] in
  let h = Prelude.Histogram.of_samples ~bins:2 samples in
  let rendered = Prelude.Histogram.render ~width:40 h in
  let bars =
    String.split_on_char '\n' rendered
    |> List.filter (fun line -> String.contains line '#')
  in
  Alcotest.(check int) "both occupied bins draw a bar" 2 (List.length bars)

let test_of_samples_span_overflow_raises () =
  let check name samples =
    match Prelude.Histogram.of_samples ~bins:4 samples with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* Both spans overflow [hi - lo + 1]; they used to surface as
     Division_by_zero out of the binning arithmetic. *)
  check "min_int..max_int" [ min_int; max_int ];
  check "0..max_int" [ 0; max_int ]

let test_of_samples_ordinary_span_still_works () =
  let h = Prelude.Histogram.of_samples ~bins:3 [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check int) "total" 6 (Prelude.Histogram.total h)

(* --- Quantiles ----------------------------------------------------------- *)

let test_quantile_type7 () =
  let samples = [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check (float 1e-12)) "p=0 is the min" 1.
    (Prelude.Stats.quantile samples 0.);
  Alcotest.(check (float 1e-12)) "p=1 is the max" 4.
    (Prelude.Stats.quantile samples 1.);
  Alcotest.(check (float 1e-12)) "median interpolates" 2.5
    (Prelude.Stats.quantile samples 0.5);
  Alcotest.(check (float 1e-12)) "p=0.25 interpolates" 1.75
    (Prelude.Stats.quantile samples 0.25)

let test_quantile_validation () =
  (match Prelude.Stats.quantile [] 0.5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty list: expected Invalid_argument");
  match Prelude.Stats.quantile [ 1. ] 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p outside [0, 1]: expected Invalid_argument"

(* --- Estimates ----------------------------------------------------------- *)

let test_normal_quantile () =
  (* Standard values to 3-4 decimals (Acklam's approximation is ~1e-9). *)
  Alcotest.(check (float 1e-4)) "z(0.975)" 1.9600
    (Sampling.Estimate.normal_quantile 0.975);
  Alcotest.(check (float 1e-4)) "z(0.995)" 2.5758
    (Sampling.Estimate.normal_quantile 0.995);
  Alcotest.(check (float 1e-9)) "z(0.5)" 0.
    (Sampling.Estimate.normal_quantile 0.5)

let test_normal_mean_ci () =
  let e = Sampling.Estimate.normal_mean ~confidence:0.95 [ 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "point estimate" 2. e.Sampling.Estimate.value;
  Alcotest.(check bool) "CI contains the mean" true
    (Sampling.Estimate.contains e 2.);
  Alcotest.(check bool) "CI has width" true
    (e.Sampling.Estimate.ci.Sampling.Estimate.hi
     > e.Sampling.Estimate.ci.Sampling.Estimate.lo);
  let single = Sampling.Estimate.normal_mean ~confidence:0.95 [ 5. ] in
  Alcotest.(check bool) "single sample degenerates" true
    (single.Sampling.Estimate.meth = Sampling.Estimate.Degenerate)

let test_bootstrap_deterministic_and_contains_value () =
  let samples = Array.init 100 (fun k -> (k * 13 mod 31) + 1) in
  let stat a =
    float_of_int (Array.fold_left Stdlib.min max_int a)
    /. float_of_int (Array.fold_left Stdlib.max 0 a)
  in
  let run () =
    Sampling.Estimate.bootstrap ~rng:(Prelude.Rng.make 3) ~resamples:200
      ~confidence:0.99 ~stat samples
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "equal rng seeds give equal intervals" true (a = b);
  Alcotest.(check bool) "interval contains its own point estimate" true
    (Sampling.Estimate.contains a a.Sampling.Estimate.value)

let test_contains_epsilon () =
  let e = Sampling.Estimate.degenerate ~confidence:0.99 ~n:1 0.3 in
  Alcotest.(check bool) "exact endpoint hit" true
    (Sampling.Estimate.contains e 0.3);
  Alcotest.(check bool) "clearly outside" false
    (Sampling.Estimate.contains e 0.4)

(* --- Tail extrapolation -------------------------------------------------- *)

let tail_samples = Array.init 200 (fun k -> 100 + (k * 7 mod 53))

let test_tail_upper_bounds_observed_max () =
  let e =
    Sampling.Tail.estimate ~rng:(Prelude.Rng.make 4) ~resamples:100
      ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
      Sampling.Tail.Upper tail_samples
  in
  let observed_max =
    float_of_int (Array.fold_left Stdlib.max 0 tail_samples)
  in
  Alcotest.(check bool) "upper tail >= observed max" true
    (e.Sampling.Estimate.value >= observed_max)

let test_tail_lower_bounds_observed_min () =
  let e =
    Sampling.Tail.estimate ~rng:(Prelude.Rng.make 4) ~resamples:100
      ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
      Sampling.Tail.Lower tail_samples
  in
  let observed_min =
    float_of_int (Array.fold_left Stdlib.min max_int tail_samples)
  in
  Alcotest.(check bool) "lower tail <= observed min" true
    (e.Sampling.Estimate.value <= observed_min)

let test_tail_constant_samples_degenerate () =
  let e =
    Sampling.Tail.estimate ~rng:(Prelude.Rng.make 4) ~resamples:100
      ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
      Sampling.Tail.Upper (Array.make 50 7)
  in
  Alcotest.(check (float 1e-9)) "collapses to the constant" 7.
    e.Sampling.Estimate.value

let test_tail_validation () =
  match Sampling.Tail.validate ~tail_fraction:0. ~exceed_p:0.001 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tail_fraction 0: expected Invalid_argument"

(* --- Array-free bootstrap vs materialising references -------------------- *)

(* The bootstrap estimators as they were written before they went
   array-free: every replicate materialised (and, for the tails, sorted).
   The library versions must make the same draws and agree bit for bit. *)
let reference_extrapolate ~tail_fraction ~exceed_p sorted =
  let n = Array.length sorted in
  let observed_max = sorted.(n - 1) in
  let u = Prelude.Stats.quantile_sorted sorted (1. -. tail_fraction) in
  let k = ref 0 and excess_sum = ref 0. in
  Array.iter
    (fun x ->
       if x > u then begin
         incr k;
         excess_sum := !excess_sum +. (x -. u)
       end)
    sorted;
  if !k = 0 then observed_max
  else
    let m = !excess_sum /. float_of_int !k in
    Float.max
      (u +. (m *. log (float_of_int !k /. (float_of_int n *. exceed_p))))
      observed_max

let reference_tail ~rng ~resamples ~confidence ~tail_fraction ~exceed_p side
    samples =
  let n = Array.length samples in
  let sign = match side with Sampling.Tail.Upper -> 1. | Lower -> -1. in
  let oriented = Array.map (fun t -> sign *. float_of_int t) samples in
  Array.sort Float.compare oriented;
  let stat = reference_extrapolate ~tail_fraction ~exceed_p in
  let replicates =
    Array.init resamples (fun _ ->
        let re = Array.init n (fun _ -> oriented.(Prelude.Rng.int rng n)) in
        Array.sort Float.compare re;
        stat re)
  in
  let e =
    Sampling.Estimate.of_replicates ~confidence ~n ~value:(stat oriented)
      replicates
  in
  match side with
  | Sampling.Tail.Upper -> e
  | Lower ->
    { e with
      Sampling.Estimate.value = -.e.Sampling.Estimate.value;
      ci =
        { e.Sampling.Estimate.ci with
          Sampling.Estimate.lo = -.e.Sampling.Estimate.ci.Sampling.Estimate.hi;
          hi = -.e.Sampling.Estimate.ci.Sampling.Estimate.lo } }

let reference_extremes_ratio times =
  float_of_int (Array.fold_left Stdlib.min max_int times)
  /. float_of_int (Array.fold_left Stdlib.max 0 times)

let reference_stratified ~rng ~resamples ~confidence strata =
  let min_ratio strata =
    Array.fold_left
      (fun acc s -> Float.min acc (reference_extremes_ratio s))
      1. strata
  in
  let replicates =
    Array.init resamples (fun _ ->
        min_ratio
          (Array.map
             (fun s ->
                let n = Array.length s in
                Array.init n (fun _ -> s.(Prelude.Rng.int rng n)))
             strata))
  in
  let n = Array.fold_left (fun acc s -> acc + Array.length s) 0 strata in
  Sampling.Estimate.of_replicates ~confidence ~n ~value:(min_ratio strata)
    replicates

(* Bit-for-bit equality: distinguishes -0. from 0. where [=] would not. *)
let same_estimate (a : Sampling.Estimate.t) (b : Sampling.Estimate.t) =
  let bits = Int64.bits_of_float in
  let open Sampling.Estimate in
  bits a.value = bits b.value
  && bits a.ci.lo = bits b.ci.lo
  && bits a.ci.hi = bits b.ci.hi
  && bits a.ci.confidence = bits b.ci.confidence
  && a.n = b.n && a.meth = b.meth

let show_estimate (e : Sampling.Estimate.t) =
  Printf.sprintf "%h [%h, %h] n=%d %s" e.Sampling.Estimate.value
    e.Sampling.Estimate.ci.Sampling.Estimate.lo
    e.Sampling.Estimate.ci.Sampling.Estimate.hi e.Sampling.Estimate.n
    (Sampling.Estimate.method_string e.Sampling.Estimate.meth)

(* Small value ranges force ties; n = 1 and zero resamples are drawn
   often enough to be hit on every run. *)
let gen_times ~lo =
  QCheck.Gen.(
    let* n = frequency [ (1, return 1); (6, int_range 1 60) ] in
    let* hi = int_range lo (lo + 40) in
    array_size (return n) (int_range lo hi))

let gen_resamples =
  QCheck.Gen.(frequency [ (1, return 0); (4, int_range 0 25) ])

let tail_case =
  QCheck.Gen.(
    let* samples = gen_times ~lo:0 in
    let* resamples = gen_resamples in
    let* upper = bool in
    let* tail_fraction = float_range 0.01 0.99 in
    let* exceed_p = float_range 1e-4 0.5 in
    let* seed = int_range 0 100_000 in
    return (samples, resamples, upper, tail_fraction, exceed_p, seed))

let check_same what a b =
  if not (same_estimate a b) then
    QCheck.Test.fail_reportf "%s: %s <> reference %s" what (show_estimate a)
      (show_estimate b);
  true

let prop_tail_matches_sorted_reference =
  QCheck.Test.make ~count:500
    ~name:"counts-based Tail.estimate = materialise-and-sort reference"
    (QCheck.make tail_case)
    (fun (samples, resamples, upper, tail_fraction, exceed_p, seed) ->
       let side = if upper then Sampling.Tail.Upper else Sampling.Tail.Lower in
       let run f =
         f ~rng:(Prelude.Rng.make seed) ~resamples ~confidence:0.9
           ~tail_fraction ~exceed_p side samples
       in
       check_same "tail" (run Sampling.Tail.estimate) (run reference_tail))

let prop_pr_matches_bootstrap =
  QCheck.Test.make ~count:300
    ~name:"array-free Pr = Estimate.bootstrap over min/max"
    QCheck.(
      make
        Gen.(triple (gen_times ~lo:1) gen_resamples (int_range 0 100_000)))
    (fun (times, resamples, seed) ->
       let run f = f ~rng:(Prelude.Rng.make seed) ~resamples ~confidence:0.9 in
       check_same "pr"
         (run Sampling.Sampler.pr_estimate times)
         (run Sampling.Estimate.bootstrap ~stat:reference_extremes_ratio
            times))

let prop_strata_match_explicit_arrays =
  QCheck.Test.make ~count:300
    ~name:"array-free strata = explicit per-stratum resample arrays"
    QCheck.(
      make
        Gen.(
          triple
            (array_size (int_range 1 6) (gen_times ~lo:1))
            gen_resamples (int_range 0 100_000)))
    (fun (strata, resamples, seed) ->
       let run f =
         f ~rng:(Prelude.Rng.make seed) ~resamples ~confidence:0.9 strata
       in
       check_same "strata"
         (run Sampling.Sampler.stratified_estimate)
         (run reference_stratified))

(* --- The sampler: determinism and containment ---------------------------- *)

let synthetic_time q i = 10 + (((q * 31) + (i * 17)) mod 13)

let small_spec =
  { Sampling.Sampler.default with
    Sampling.Sampler.n_cells = 200; per_stratum = 16; resamples = 100 }

let test_sampler_jobs_determinism () =
  let run jobs =
    Sampling.Sampler.run ~jobs ~spec:small_spec ~n_states:9 ~n_inputs:11
      ~time:synthetic_time ()
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
       Alcotest.(check bool)
         (Printf.sprintf "jobs=%d bit-identical to jobs=1" jobs)
         true
         (run jobs = reference))
    [ 2; 4; 8 ]

let test_sampler_seed_sensitivity () =
  let run seed =
    Sampling.Sampler.run ~jobs:1
      ~spec:{ small_spec with Sampling.Sampler.seed }
      ~n_states:9 ~n_inputs:11 ~time:synthetic_time ()
  in
  Alcotest.(check bool) "same seed reproduces" true (run 1 = run 1);
  Alcotest.(check bool) "shifted seed draws different cells" true
    ((run 1).Sampling.Sampler.cells <> (run 2).Sampling.Sampler.cells)

(* Exhaustive ground truth for a dense times matrix. *)
let exhaustive_of rows =
  let m = Predictability.Quantify.of_rows rows in
  ( Prelude.Ratio.to_float (Predictability.Quantify.pr m),
    Prelude.Ratio.to_float (Predictability.Quantify.sipr m),
    Prelude.Ratio.to_float (Predictability.Quantify.iipr m),
    Predictability.Quantify.bcet m,
    Predictability.Quantify.wcet m )

(* qcheck containment: on matrices of at most 5x5 cells, a 600-draw
   Monte-Carlo pass and 96-per-stratum stratified passes cover every cell
   except with probability ~1e-9, and with full coverage the basic
   bootstrap intervals contain the exhaustive ratios by construction —
   so the property is deterministic in practice, not flaky. The mean's
   99% normal CI genuinely misses ~1% of the time, so it is checked only
   in the fixed-seed test below, never under qcheck. *)
let matrix_case =
  QCheck.Gen.(
    let* n_states = int_range 1 5 in
    let* n_inputs = int_range 1 5 in
    let* seed = int_range 0 10_000 in
    let* rows =
      array_size (return n_states)
        (array_size (return n_inputs) (int_range 1 100))
    in
    return (n_states, n_inputs, seed, rows))

let containment_spec seed =
  { Sampling.Sampler.default with
    Sampling.Sampler.n_cells = 600; per_stratum = 96; resamples = 100; seed }

let prop_sampled_ci_contains_exhaustive =
  QCheck.Test.make ~count:60
    ~name:"sampled CIs contain the exhaustive Pr/SIPr/IIPr; tails bracket"
    (QCheck.make matrix_case)
    (fun (n_states, n_inputs, seed, rows) ->
       let pr, sipr, iipr, bcet, wcet = exhaustive_of rows in
       let r =
         Sampling.Sampler.run ~jobs:1 ~spec:(containment_spec seed) ~n_states
           ~n_inputs
           ~time:(fun q i -> rows.(q).(i))
           ()
       in
       let inside what e x =
         if not (Sampling.Estimate.contains e x) then
           QCheck.Test.fail_reportf "%s: exhaustive %.6f outside [%.6f, %.6f]"
             what x e.Sampling.Estimate.ci.Sampling.Estimate.lo
             e.Sampling.Estimate.ci.Sampling.Estimate.hi
       in
       inside "Pr" r.Sampling.Sampler.pr pr;
       inside "SIPr" r.Sampling.Sampler.sipr sipr;
       inside "IIPr" r.Sampling.Sampler.iipr iipr;
       if r.Sampling.Sampler.bcet_tail.Sampling.Estimate.value
          > float_of_int bcet
       then QCheck.Test.fail_reportf "lower tail above exhaustive BCET";
       if r.Sampling.Sampler.wcet_tail.Sampling.Estimate.value
          < float_of_int wcet
       then QCheck.Test.fail_reportf "upper tail below exhaustive WCET";
       true)

let test_fixed_seed_mean_containment () =
  let rows = Array.init 5 (fun q -> Array.init 5 (fun i -> synthetic_time q i)) in
  let total = Array.fold_left (fun a r -> Array.fold_left ( + ) a r) 0 rows in
  let mean = float_of_int total /. 25. in
  let r =
    Sampling.Sampler.run ~jobs:1 ~spec:(containment_spec 77) ~n_states:5
      ~n_inputs:5
      ~time:(fun q i -> rows.(q).(i))
      ()
  in
  Alcotest.(check bool) "exhaustive mean inside the normal CI" true
    (Sampling.Estimate.contains r.Sampling.Sampler.mean mean)

(* --- Quantify.sample wiring ---------------------------------------------- *)

let test_quantify_sample_validation () =
  let timer = Predictability.Quantify.Scalar (fun q i -> q + i + 1) in
  (match
     Predictability.Quantify.sample ~spec:small_spec ~states:[]
       ~inputs:[ 0 ] timer
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty states: expected Invalid_argument");
  match
    Predictability.Quantify.sample ~spec:small_spec ~states:[ 0 ]
      ~inputs:[ 0 ]
      (Predictability.Quantify.Scalar (fun _ _ -> 0))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive time: expected Invalid_argument"

let test_quantify_sample_counts_evals () =
  let calls = ref 0 in
  let timer =
    Predictability.Quantify.Scalar
      (fun q i ->
         incr calls;
         q + i + 1)
  in
  let r =
    Predictability.Quantify.sample ~jobs:1 ~spec:small_spec
      ~states:[ 0; 1; 2 ] ~inputs:[ 0; 1; 2; 3 ] timer
  in
  Alcotest.(check int) "evals matches the spec arithmetic"
    (200 + (4 * 16) + (3 * 16))
    r.Sampling.Sampler.evals;
  Alcotest.(check int) "timer called once per eval" r.Sampling.Sampler.evals
    !calls

(* --- Golden pins --------------------------------------------------------- *)

(* Exact Sampler.to_json bytes of seeded analyses. The JSON float
   rendering round-trips every double, so these pin each estimate and CI
   endpoint bit for bit. The cross-jobs and daemon-vs-CLI gates compare
   two runs of the current code and would miss a drift that every path
   shares; these catch it. *)
let golden_entry name = (name, List.assoc name Isa.Workload.registry)

let golden_sampled ?spec name =
  (Predictability.Sampled.analyze ~jobs:1 ?spec (golden_entry name))
    .Predictability.Sampled.sampled
  |> Sampling.Sampler.to_json |> Prelude.Json.to_string

let golden_tiny =
  { Sampling.Sampler.default with
    Sampling.Sampler.n_cells = 2; per_stratum = 2; resamples = 3;
    tail_fraction = 0.5 }

let golden_doc = function
  | "popcount_check77" ->
    Predictability.Sampled.analyze ~jobs:1 ~cross_check:true
      ~spec:{ Sampling.Sampler.default with Sampling.Sampler.seed = 77 }
      (golden_entry "popcount")
    |> Predictability.Sampled.row_to_json |> Prelude.Json.to_string
  | "bubble_sort_tiny" -> golden_sampled ~spec:golden_tiny "bubble_sort"
  | name -> golden_sampled name

let golden_pins =
  [ ("bubble_sort",
     String.concat ""
       [ {|{"n_states":6,"n_inputs":24,"seed":23101,"spec":{"n_cells":384,"per_stratum":32,"confidence":0.99,"resamples":200,"tail_fraction":0.25,"exceed_p":0.001,"seed":23101},|};
         {|"pr":{"estimate":0.7741935483870968,"ci_lo":0.7614362771020624,"ci_hi":0.7741935483870968,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"sipr":{"estimate":0.8571428571428571,"ci_lo":0.8571428571428571,"ci_hi":0.8571428571428571,"confidence":0.99,"n_samples":768,"method":"bootstrap"},|};
         {|"iipr":{"estimate":0.8888888888888888,"ci_lo":0.8703703703703702,"ci_hi":0.8888888888888888,"confidence":0.99,"n_samples":192,"method":"bootstrap"},|};
         {|"mean_time":{"estimate":366.9348958333333,"ci_lo":364.23093823894317,"ci_hi":369.63885342772346,"confidence":0.99,"n_samples":384,"method":"normal"},|};
         {|"bcet_tail":{"estimate":296.4951350361186,"ci_lo":278.2004971803036,"ci_hi":301.44885309735974,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"wcet_tail":{"estimate":506.6283550197073,"ci_lo":461.52244607302123,"ci_hi":536.265893363789,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"evals":1344}|} ]);
    ("fibonacci",
     String.concat ""
       [ {|{"n_states":6,"n_inputs":1,"seed":23101,"spec":{"n_cells":384,"per_stratum":32,"confidence":0.99,"resamples":200,"tail_fraction":0.25,"exceed_p":0.001,"seed":23101},|};
         {|"pr":{"estimate":0.8627450980392157,"ci_lo":0.8627450980392157,"ci_hi":0.8627450980392157,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"sipr":{"estimate":0.8627450980392157,"ci_lo":0.8627450980392157,"ci_hi":0.8627450980392157,"confidence":0.99,"n_samples":32,"method":"bootstrap"},|};
         {|"iipr":{"estimate":1.0,"ci_lo":1.0,"ci_hi":1.0,"confidence":0.99,"n_samples":192,"method":"bootstrap"},|};
         {|"mean_time":{"estimate":134.625,"ci_lo":133.71089513393707,"ci_hi":135.53910486606293,"confidence":0.99,"n_samples":384,"method":"normal"},|};
         {|"bcet_tail":{"estimate":132.0,"ci_lo":132.0,"ci_hi":132.0,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"wcet_tail":{"estimate":233.39458848334834,"ci_lo":228.01665401314412,"ci_hi":241.2767181534234,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"evals":608}|} ]);
    ("clamp",
     String.concat ""
       [ {|{"n_states":6,"n_inputs":10,"seed":23101,"spec":{"n_cells":384,"per_stratum":32,"confidence":0.99,"resamples":200,"tail_fraction":0.25,"exceed_p":0.001,"seed":23101},|};
         {|"pr":{"estimate":0.4,"ci_lo":0.4,"ci_hi":0.4,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"sipr":{"estimate":0.43243243243243246,"ci_lo":0.43243243243243246,"ci_hi":0.43243243243243246,"confidence":0.99,"n_samples":320,"method":"bootstrap"},|};
         {|"iipr":{"estimate":0.8421052631578947,"ci_lo":0.8421052631578947,"ci_hi":0.8421052631578947,"confidence":0.99,"n_samples":192,"method":"bootstrap"},|};
         {|"mean_time":{"estimate":20.078125,"ci_lo":19.140686630497232,"ci_hi":21.015563369502768,"confidence":0.99,"n_samples":384,"method":"normal"},|};
         {|"bcet_tail":{"estimate":16.0,"ci_lo":16.0,"ci_hi":16.0,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"wcet_tail":{"estimate":113.15211787739489,"ci_lo":107.29863094943238,"ci_hi":121.8868058886173,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"evals":896}|} ]);
    ("popcount_check77",
     String.concat ""
       [ {|{"workload":"popcount","n_states":6,"n_inputs":12,"seed":77,"spec":{"n_cells":384,"per_stratum":32,"confidence":0.99,"resamples":200,"tail_fraction":0.25,"exceed_p":0.001,"seed":77},|};
         {|"pr":{"estimate":0.7019867549668874,"ci_lo":0.7019867549668874,"ci_hi":0.7019867549668874,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"sipr":{"estimate":0.8346456692913385,"ci_lo":0.8345909564613248,"ci_hi":0.8346456692913385,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"iipr":{"estimate":0.8153846153846154,"ci_lo":0.8153846153846154,"ci_hi":0.8153846153846154,"confidence":0.99,"n_samples":192,"method":"bootstrap"},|};
         {|"mean_time":{"estimate":122.09375,"ci_lo":120.76921519485879,"ci_hi":123.41828480514121,"confidence":0.99,"n_samples":384,"method":"normal"},|};
         {|"bcet_tail":{"estimate":77.41610303863649,"ci_lo":72.81867242474257,"ci_hi":80.94799009798683,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"wcet_tail":{"estimate":203.08419224243232,"ci_lo":193.84829389370734,"ci_hi":218.4665512984473,"confidence":0.99,"n_samples":384,"method":"bootstrap"},|};
         {|"evals":960,"exhaustive":{"pr":0.7019867549668874,"sipr":0.8346456692913385,"iipr":0.8153846153846154,"bcet":106,"wcet":151,"mean":122.0},|};
         {|"contained":{"pr":true,"sipr":true,"iipr":true,"mean":true,"tails":true}}|} ]);
    ("bubble_sort_tiny",
     String.concat ""
       [ {|{"n_states":6,"n_inputs":24,"seed":23101,"spec":{"n_cells":2,"per_stratum":2,"confidence":0.99,"resamples":3,"tail_fraction":0.5,"exceed_p":0.001,"seed":23101},|};
         {|"pr":{"estimate":0.9607843137254902,"ci_lo":0.9215686274509804,"ci_hi":0.9607843137254902,"confidence":0.99,"n_samples":2,"method":"bootstrap"},|};
         {|"sipr":{"estimate":0.864406779661017,"ci_lo":0.8495032144944478,"ci_hi":0.864406779661017,"confidence":0.99,"n_samples":48,"method":"bootstrap"},|};
         {|"iipr":{"estimate":0.96,"ci_lo":0.920377358490566,"ci_hi":0.96,"confidence":0.99,"n_samples":12,"method":"bootstrap"},|};
         {|"mean_time":{"estimate":3.5e+02,"ci_lo":331.9691948548925,"ci_hi":368.0308051451075,"confidence":0.99,"n_samples":2,"method":"normal"},|};
         {|"bcet_tail":{"estimate":306.49774331104464,"ci_lo":306.49774331104464,"ci_hi":306.49774331104464,"confidence":0.99,"n_samples":2,"method":"bootstrap"},|};
         {|"wcet_tail":{"estimate":393.50225668895536,"ci_lo":393.50225668895536,"ci_hi":443.8645133779107,"confidence":0.99,"n_samples":2,"method":"bootstrap"},|};
         {|"evals":62}|} ]) ]

let golden_tests =
  List.map
    (fun (label, expected) ->
       Alcotest.test_case label `Quick (fun () ->
           Alcotest.(check string) label expected (golden_doc label)))
    golden_pins

let () =
  Alcotest.run "sampling"
    [ ("rng",
       [ Alcotest.test_case "chi-square rejects the old modulo reduction"
           `Quick test_chi_square_rejects_biased;
         Alcotest.test_case "chi-square accepts rejection sampling" `Quick
           test_chi_square_accepts_fixed;
         Alcotest.test_case "small-bound sequences unchanged" `Quick
           test_small_bound_sequences_unchanged;
         Alcotest.test_case "non-positive bound rejected" `Quick
           test_int_rejects_nonpositive_bound ]);
      ("split-key",
       [ Alcotest.test_case "reproducible" `Quick test_split_key_reproducible;
         Alcotest.test_case "distinct keys decorrelate" `Quick
           test_split_key_distinct_keys;
         Alcotest.test_case "does not advance the parent" `Quick
           test_split_key_does_not_advance ]);
      ("histogram",
       [ Alcotest.test_case "nonzero bins always draw a bar" `Quick
           test_render_never_hides_nonzero_bin;
         Alcotest.test_case "span overflow raises" `Quick
           test_of_samples_span_overflow_raises;
         Alcotest.test_case "ordinary spans still bin" `Quick
           test_of_samples_ordinary_span_still_works ]);
      ("quantile",
       [ Alcotest.test_case "type-7 interpolation" `Quick test_quantile_type7;
         Alcotest.test_case "validation" `Quick test_quantile_validation ]);
      ("estimate",
       [ Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
         Alcotest.test_case "normal mean CI" `Quick test_normal_mean_ci;
         Alcotest.test_case "bootstrap deterministic" `Quick
           test_bootstrap_deterministic_and_contains_value;
         Alcotest.test_case "contains epsilon" `Quick test_contains_epsilon ]);
      ("tail",
       [ Alcotest.test_case "upper bounds observed max" `Quick
           test_tail_upper_bounds_observed_max;
         Alcotest.test_case "lower bounds observed min" `Quick
           test_tail_lower_bounds_observed_min;
         Alcotest.test_case "constant samples degenerate" `Quick
           test_tail_constant_samples_degenerate;
         Alcotest.test_case "parameter validation" `Quick
           test_tail_validation ]);
      ("array-free",
       List.map QCheck_alcotest.to_alcotest
         [ prop_tail_matches_sorted_reference; prop_pr_matches_bootstrap;
           prop_strata_match_explicit_arrays ]);
      ("sampler",
       [ Alcotest.test_case "bit-identical across jobs" `Quick
           test_sampler_jobs_determinism;
         Alcotest.test_case "seed sensitivity" `Quick
           test_sampler_seed_sensitivity;
         QCheck_alcotest.to_alcotest prop_sampled_ci_contains_exhaustive;
         Alcotest.test_case "fixed-seed mean containment" `Quick
           test_fixed_seed_mean_containment ]);
      ("golden", golden_tests);
      ("quantify-sample",
       [ Alcotest.test_case "validation" `Quick test_quantify_sample_validation;
         Alcotest.test_case "eval accounting" `Quick
           test_quantify_sample_counts_evals ]) ]
