(* Layer probes of the traced run. Each calls one library's public
   functions from here, inside spans, on fixed inputs:

   - predictability.cache_metrics: evict/fill with RW.CACHE's arguments;
   - sampling: Sampler.run with DEF.SAMPLE's calls, at the default and at
     one bootstrap resample;
   - fastpath / pipeline / predictability.quantify: every workload's
     standard Q x I cells (states of Harness.inorder_states, inputs capped
     at Sampled.input_cap);
   - analysis / dataflow: WCET bracket, certificates and taint per
     workload.

   Every probe also checks its outputs; each returns (checks, failed). *)

open Util
module H = Predictability.Harness
module CM = Predictability.Cache_metrics

let ( +! ) (a, b) (c, d) = (a + c, b + d)
let check ok = (1, if ok then 0 else 1)

(* --- cache metrics ------------------------------------------------------- *)

let policies =
  [ (Cache.Policy.Lru, "lru"); (Cache.Policy.Fifo, "fifo"); (Cache.Policy.Plru, "plru");
    (Cache.Policy.Mru, "mru"); (Cache.Policy.Round_robin, "rr") ]

let cache_metric_names =
  List.concat_map
    (fun m ->
       List.concat_map
         (fun (_, p) ->
            List.map (fun k -> Printf.sprintf "predictability.cache_metrics.%s.%s.k%d" m p k) [ 2; 4 ])
         policies)
    [ "evict"; "fill" ]

let cache_stats = ref (0, 0, 0)  (* evals, searches, Beyond results *)

let cache_metrics () =
  let before = Prelude.Instrument.snapshot () in
  let searches = ref 0 and beyond = ref 0 and verdict = ref (0, 0) in
  List.iter
    (fun ways ->
       List.iter
         (fun (kind, pname) ->
            let max_probes = (3 * ways) + 2 in
            let search m f =
              let r =
                Span.with_ (Printf.sprintf "predictability.cache_metrics.%s.%s.k%d" m pname ways)
                  (fun () -> f ~engine:`Fast kind ~ways ~max_probes)
              in
              incr searches;
              (match r with CM.Beyond _ -> incr beyond | CM.Exact _ -> ());
              r
            in
            let e = search "evict" (fun ~engine k -> CM.evict ~engine k) in
            let f = search "fill" (fun ~engine k -> CM.fill ~engine k) in
            (* RW.CACHE's own oracles: LRU attains evict = fill = k, FIFO
               needs 2k - 1 accesses to evict. *)
            match kind with
            | Cache.Policy.Lru -> verdict := !verdict +! check (e = CM.Exact ways && f = CM.Exact ways)
            | Cache.Policy.Fifo -> verdict := !verdict +! check (e = CM.Exact ((2 * ways) - 1))
            | _ -> ())
         policies)
    [ 2; 4 ];
  let after = Prelude.Instrument.snapshot () in
  cache_stats := (after.evals - before.evals, !searches, !beyond);
  !verdict

let cache_metric_metrics () =
  let evals, searches, beyond = !cache_stats in
  List.map (fun n -> (n ^ ".s", span_median n, "s")) cache_metric_names
  @ [ ("predictability.cache_metrics.evals", float_of_int evals, "count");
      ("predictability.cache_metrics.beyond_frac",
       float_of_int beyond /. float_of_int (max 1 searches), "frac") ]

(* --- shared per-workload uncertainty sets ------------------------------- *)

type cells = {
  name : string;
  workload : Isa.Workload.t;
  program : Isa.Program.t;
  shapes : (string * Isa.Ast.shape) list;
  states : Pipeline.Inorder.state array;
  inputs : Isa.Exec.input array;
}

let cells_of (name, make) =
  let workload = make () in
  let program, shapes = Isa.Workload.program workload in
  { name; workload; program; shapes;
    states = Array.of_list (H.inorder_states program workload);
    inputs =
      Array.of_list (Prelude.Listx.take Predictability.Sampled.input_cap workload.Isa.Workload.inputs) }

let all_cells = lazy (List.map cells_of Isa.Workload.registry)

(* --- sampling ------------------------------------------------------------ *)

let memo = ref (0, 0)

(* DEF.SAMPLE's Sampler.run calls: per workload the cross-checked run,
   jobs 1/2/4/8, a rerun and the shifted seed — each on a fresh fast-path
   timer, as Sampled.analyze builds one per call. This list is a copy of
   the call pattern of lib/core/exp_def_sample.ml and must be kept in step
   with it; predictability.exp.DEF.SAMPLE.evals, from the real run,
   follows that file on its own. *)
let sampler () =
  let spec = Sampling.Sampler.default in
  let calls =
    [ (1, spec); (1, spec); (2, spec); (4, spec); (8, spec); (1, spec);
      (1, { spec with Sampling.Sampler.seed = spec.Sampling.Sampler.seed + 1 }) ]
  in
  let run span c (jobs, spec) =
    let scalar = Predictability.Quantify.timer_scalar (H.inorder_timer ~engine:`Fast c.program) in
    let time q i = scalar c.states.(q) c.inputs.(i) in
    Span.with_ span (fun () ->
        Sampling.Sampler.run ~jobs ~spec ~n_states:(Array.length c.states)
          ~n_inputs:(Array.length c.inputs) ~time ())
  in
  let before = Prelude.Instrument.snapshot () in
  let verdict =
    List.fold_left
      (fun acc c ->
         let results = List.map (run "sampling.sampler.run" c) calls in
         let first = List.hd results in
         (* Bit-identical across jobs and reruns; the shifted seed differs. *)
         let same = List.filteri (fun i _ -> i < 6) results in
         let shifted = List.nth results 6 in
         acc
         +! check (List.for_all (fun r -> r = first) same)
         +! check (shifted.Sampling.Sampler.cells <> first.Sampling.Sampler.cells))
      (0, 0) (Lazy.force all_cells)
  in
  let after = Prelude.Instrument.snapshot () in
  memo := (after.memo_hits - before.memo_hits, after.memo_misses - before.memo_misses);
  List.iter
    (fun c ->
       List.iter
         (fun (jobs, spec) ->
            ignore (run "sampling.sampler.run_min_resamples" c
                      (jobs, { spec with Sampling.Sampler.resamples = 1 })))
         calls)
    (Lazy.force all_cells);
  verdict

let sampler_metrics () =
  let full = Span.total "sampling.sampler.run"
  and min = Span.total "sampling.sampler.run_min_resamples" in
  let hits, misses = !memo in
  [ ("sampling.sampler.run.s", full, "s");
    ("sampling.sampler.run_min_resamples.s", min, "s");
    ("sampling.bootstrap_share", (full -. min) /. full, "frac");
    ("fastpath.memo_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "frac") ]

(* --- fastpath, pipeline, quantify ---------------------------------------- *)

let n_cells = ref 0

let sweep f c = Array.map (fun q -> Array.map (fun i -> f q i) c.inputs) c.states

let fastpath () =
  List.fold_left
    (fun acc c ->
       n_cells := !n_cells + (Array.length c.states * Array.length c.inputs);
       let reference =
         Span.with_ "pipeline.inorder.time" (fun () -> sweep (Pipeline.Inorder.time c.program) c)
       in
       let engine_sweep span memo =
         let e = Fastpath.Engine.create ~memo c.program in
         ignore (sweep (Fastpath.Engine.time e) c);  (* compiles traces, fills the memo *)
         Span.with_ span (fun () -> sweep (Fastpath.Engine.time e) c)
       in
       let warm = engine_sweep "fastpath.engine.time" true in
       let nomemo = engine_sweep "fastpath.engine.time_nomemo" false in
       let states = Array.to_list c.states and inputs = Array.to_list c.inputs in
       let evaluate span engine timer =
         Span.with_ span (fun () ->
             Predictability.Quantify.evaluate_timer ~jobs:1 ~engine ~states ~inputs timer)
       in
       let exact =
         evaluate "predictability.quantify.evaluate.exact" `Exact (H.inorder_timer ~engine:`Exact c.program)
       in
       let fast =
         evaluate "predictability.quantify.evaluate.fast" `Fast
           (Predictability.Quantify.Scalar
              (Predictability.Quantify.timer_scalar (H.inorder_timer ~engine:`Fast c.program)))
       in
       let batched =
         evaluate "predictability.quantify.evaluate.batched" `Fast (H.inorder_timer ~engine:`Fast c.program)
       in
       acc
       +! check (warm = reference && nomemo = reference)
       +! check (exact = reference && fast = reference && batched = reference))
    (0, 0) (Lazy.force all_cells)

let fastpath_metrics () =
  let per_cell name = Span.total name *. 1e9 /. float_of_int (max 1 !n_cells) in
  [ ("fastpath.engine.time.ns_per_cell", per_cell "fastpath.engine.time", "ns");
    ("fastpath.engine.time_nomemo.ns_per_cell", per_cell "fastpath.engine.time_nomemo", "ns");
    ("pipeline.inorder.time.ns_per_cell", per_cell "pipeline.inorder.time", "ns") ]
  @ List.map
    (fun p ->
       let n = "predictability.quantify.evaluate." ^ p in
       (n ^ ".s", Span.total n, "s"))
    [ "exact"; "fast"; "batched" ]

(* --- analysis, dataflow -------------------------------------------------- *)

(* EXT.ATLAS's analysis configuration. *)
let wcet_config unroll =
  { Analysis.Wcet.icache =
      Analysis.Wcet.Cached_fetch
        { config = H.icache_config; hit = H.icache_hit; miss = H.icache_miss };
    dmem = Analysis.Wcet.Range_data { best = H.dcache_hit; worst = H.dcache_miss };
    unroll; budget = None }

let analysis () =
  List.fold_left
    (fun acc c ->
       let ub, lb =
         Span.with_ "analysis.wcet.bracket" (fun () ->
             Analysis.Wcet.bracket ~engine:`Fast ~upper:(wcet_config true)
               ~lower:(wcet_config false) ~shapes:c.shapes ~entry:"main" ())
       in
       ignore (Span.with_ "dataflow.taint" (fun () -> Dataflow.Taint.of_workload c.workload));
       ignore
         (Span.with_ "analysis.certify" (fun () ->
              List.map (fun m -> Analysis.Certify.certify m c.workload) Predictability.Certifier.machines));
       (* The bounds bracket every observed time of the standard cells. *)
       let times = Array.concat (Array.to_list (sweep (Pipeline.Inorder.time c.program) c)) in
       let lo = Array.fold_left min max_int times and hi = Array.fold_left max 0 times in
       acc +! check (lb.Analysis.Wcet.bound <= lo && ub.Analysis.Wcet.bound >= hi))
    (0, 0) (Lazy.force all_cells)

let analysis_metrics () =
  List.map (fun n -> (n ^ ".s", Span.total n, "s"))
    [ "analysis.wcet.bracket"; "analysis.certify"; "dataflow.taint" ]
