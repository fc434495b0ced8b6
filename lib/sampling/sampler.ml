type spec = {
  n_cells : int;
  per_stratum : int;
  confidence : float;
  resamples : int;
  tail_fraction : float;
  exceed_p : float;
  seed : int;
}

let default =
  { n_cells = 384;
    per_stratum = 32;
    confidence = 0.99;
    resamples = 200;
    tail_fraction = 0.25;
    exceed_p = 0.001;
    seed = 0x5a3d }

let validate spec =
  if spec.n_cells < 2 then
    invalid_arg "Sampler.run: n_cells must be >= 2";
  if spec.per_stratum < 2 then
    invalid_arg "Sampler.run: per_stratum must be >= 2";
  if
    Float.is_nan spec.confidence || spec.confidence <= 0.
    || spec.confidence >= 1.
  then invalid_arg "Sampler.run: confidence must be in (0, 1)";
  if spec.resamples < 0 then
    invalid_arg "Sampler.run: resamples must be >= 0";
  Tail.validate ~tail_fraction:spec.tail_fraction ~exceed_p:spec.exceed_p

type cell = {
  q : int;
  i : int;
  t : int;
}

(* One pool job's output: a Monte-Carlo cell or one stratum's times. *)
type draw =
  | Cell of cell
  | Stratum of int array

type result = {
  spec : spec;
  n_states : int;
  n_inputs : int;
  cells : cell array;
  pr : Estimate.t;
  sipr : Estimate.t;
  iipr : Estimate.t;
  mean : Estimate.t;
  bcet_tail : Estimate.t;
  wcet_tail : Estimate.t;
  evals : int;
}

(* Substream keys under the root generator. Every consumer of randomness
   gets its own keyed stream: the drawn cells, each stratum, and each
   bootstrap are mutually independent and — crucially — independent of
   evaluation order, so results are bit-identical for any worker-domain
   count. *)
let key_cells = 1
let key_sipr = 2
let key_iipr = 3
let key_boot_pr = 4
let key_boot_sipr = 5
let key_boot_iipr = 6
let key_boot_bcet = 7
let key_boot_wcet = 8

let check_time t =
  if t <= 0 then
    invalid_arg "Sampler.run: execution times must be positive";
  t

let extremes_ratio times =
  let mn = Array.fold_left Stdlib.min max_int times in
  let mx = Array.fold_left Stdlib.max 0 times in
  float_of_int mn /. float_of_int mx

(* [extremes_ratio] of one with-replacement resample of [times], folded
   straight over the drawn indices: the same draws, in the same order, and
   the same value as materialising the resample first. *)
let resampled_extremes_ratio rng times =
  let n = Array.length times in
  let mn = ref max_int and mx = ref 0 in
  for _ = 1 to n do
    let t = times.(Prelude.Rng.int rng n) in
    if t < !mn then mn := t;
    if t > !mx then mx := t
  done;
  float_of_int !mn /. float_of_int !mx

let pr_estimate ~rng ~resamples ~confidence times =
  let n = Array.length times in
  if n = 0 then invalid_arg "Sampler.pr_estimate: empty sample array";
  Estimate.of_replicates ~confidence ~n ~value:(extremes_ratio times)
    (Array.init resamples (fun _ -> resampled_extremes_ratio rng times))

(* min over strata of (min/max within the stratum) — the sampled analogue
   of Defs. 4 and 5, with the stratum playing the fixed input (SIPr) or
   fixed state (IIPr). A hierarchical bootstrap resamples within every
   stratum (the strata themselves are exhaustive — one per input or per
   state — so they are not resampled) and recomputes the min-ratio. *)
let stratified_estimate ~rng ~resamples ~confidence strata =
  let min_ratio ratio =
    Array.fold_left (fun acc stratum -> Float.min acc (ratio stratum)) 1.
      strata
  in
  let value = min_ratio extremes_ratio in
  let replicates =
    Array.init resamples (fun _ -> min_ratio (resampled_extremes_ratio rng))
  in
  let n = Array.fold_left (fun acc s -> acc + Array.length s) 0 strata in
  Estimate.of_replicates ~confidence ~n ~value replicates

(* [Parallel.map_array], keeping the documented [Invalid_argument] for a
   rejected cell: when several workers reject a cell at once the pool
   raises [Multiple_failures] instead, and whether it does depends on
   scheduling. *)
let map_cells ?jobs f xs =
  try Prelude.Parallel.map_array ?jobs f xs
  with Prelude.Parallel.Multiple_failures { first = Invalid_argument _ as e; _ }
    -> raise e

let run ?jobs ~spec ~n_states ~n_inputs ~time () =
  validate spec;
  if n_states <= 0 then invalid_arg "Sampler.run: n_states must be positive";
  if n_inputs <= 0 then invalid_arg "Sampler.run: n_inputs must be positive";
  let root = Prelude.Rng.make spec.seed in
  let cell_master = Prelude.Rng.split_key root key_cells in
  let sipr_master = Prelude.Rng.split_key root key_sipr in
  let iipr_master = Prelude.Rng.split_key root key_iipr in
  (* One pool for every draw. Job k < n_cells is Monte-Carlo cell k (Pr,
     the mean and the tails); then one job per input stratum (SIPr: every
     input, states sampled within it) and one per state stratum (IIPr:
     every state, inputs sampled within it). Each job reads only the
     stream keyed by its own cell or stratum index, never worker
     identity, and Parallel.map_array delivers results by job index — the
     two halves of the cross-jobs determinism guarantee. *)
  let n_cells = spec.n_cells in
  let stratum time_one =
    Stratum (Array.init spec.per_stratum (fun _ -> check_time (time_one ())))
  in
  let draw k =
    if k < n_cells then begin
      let rng = Prelude.Rng.split_key cell_master k in
      let q = Prelude.Rng.int rng n_states in
      let i = Prelude.Rng.int rng n_inputs in
      Cell { q; i; t = check_time (time q i) }
    end
    else if k < n_cells + n_inputs then begin
      let i = k - n_cells in
      let rng = Prelude.Rng.split_key sipr_master i in
      stratum (fun () -> time (Prelude.Rng.int rng n_states) i)
    end
    else begin
      let q = k - n_cells - n_inputs in
      let rng = Prelude.Rng.split_key iipr_master q in
      stratum (fun () -> time q (Prelude.Rng.int rng n_inputs))
    end
  in
  let drawn =
    map_cells ?jobs draw (Array.init (n_cells + n_inputs + n_states) Fun.id)
  in
  let cells =
    Array.init n_cells (fun k ->
        match drawn.(k) with Cell c -> c | Stratum _ -> assert false)
  in
  let strata_at first count =
    Array.init count (fun k ->
        match drawn.(first + k) with Stratum s -> s | Cell _ -> assert false)
  in
  let cell_times = Array.map (fun c -> c.t) cells in
  (* Every estimate below is a sequential fold over data already fixed
     above, with its own keyed bootstrap stream: jobs cannot affect it. *)
  let pr =
    pr_estimate
      ~rng:(Prelude.Rng.split_key root key_boot_pr)
      ~resamples:spec.resamples ~confidence:spec.confidence cell_times
  in
  let stratified key first count =
    stratified_estimate
      ~rng:(Prelude.Rng.split_key root key)
      ~resamples:spec.resamples ~confidence:spec.confidence
      (strata_at first count)
  in
  let sipr = stratified key_boot_sipr n_cells n_inputs in
  let iipr = stratified key_boot_iipr (n_cells + n_inputs) n_states in
  let mean =
    Estimate.normal_mean ~confidence:spec.confidence
      (Array.to_list (Array.map float_of_int cell_times))
  in
  let tail side key =
    Tail.estimate
      ~rng:(Prelude.Rng.split_key root key)
      ~resamples:spec.resamples ~confidence:spec.confidence
      ~tail_fraction:spec.tail_fraction ~exceed_p:spec.exceed_p side
      cell_times
  in
  let bcet_tail = tail Tail.Lower key_boot_bcet in
  let wcet_tail = tail Tail.Upper key_boot_wcet in
  { spec; n_states; n_inputs; cells; pr; sipr; iipr; mean; bcet_tail;
    wcet_tail;
    evals =
      spec.n_cells + (n_inputs * spec.per_stratum)
      + (n_states * spec.per_stratum) }

let spec_to_json spec =
  Prelude.Json.Obj
    [ ("n_cells", Prelude.Json.Int spec.n_cells);
      ("per_stratum", Prelude.Json.Int spec.per_stratum);
      ("confidence", Prelude.Json.Float spec.confidence);
      ("resamples", Prelude.Json.Int spec.resamples);
      ("tail_fraction", Prelude.Json.Float spec.tail_fraction);
      ("exceed_p", Prelude.Json.Float spec.exceed_p);
      ("seed", Prelude.Json.Int spec.seed) ]

let to_json r =
  Prelude.Json.Obj
    [ ("n_states", Prelude.Json.Int r.n_states);
      ("n_inputs", Prelude.Json.Int r.n_inputs);
      ("seed", Prelude.Json.Int r.spec.seed);
      ("spec", spec_to_json r.spec);
      ("pr", Estimate.to_json r.pr);
      ("sipr", Estimate.to_json r.sipr);
      ("iipr", Estimate.to_json r.iipr);
      ("mean_time", Estimate.to_json r.mean);
      ("bcet_tail", Estimate.to_json r.bcet_tail);
      ("wcet_tail", Estimate.to_json r.wcet_tail);
      ("evals", Prelude.Json.Int r.evals) ]
