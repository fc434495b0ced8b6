(* The batch workloads.

   registry: the whole reproduction as its user runs it, one
     `predlab all --jobs 1 --format json` process per reproduction.
   figures: rounds, in this process, of every experiment except the
     three that sampling, the cache-policy explorer and the certifier
     dominate (RW.CACHE, DEF.SAMPLE, DEF.CERT), each run the way
     `predlab run ID` runs it. *)

module Json = Prelude.Json
module E = Predictability.Experiments
open Util

let excluded_from_figures = [ "RW.CACHE"; "DEF.SAMPLE"; "DEF.CERT" ]

let figure_entries =
  List.filter (fun (id, _, _) -> not (List.mem id excluded_from_figures)) E.all

(* --- Verdicts on predlab's own report documents ------------------------ *)

let member_string key j = Option.bind (Json.member key j) Json.string_value
let member_int key j = Option.bind (Json.member key j) Json.int_value

let experiment_ok j =
  member_string "status" j = Some "completed"
  && (match (member_int "checks_passed" j, member_int "checks_total" j) with
      | Some p, Some t -> p = t && t > 0
      | _ -> false)

(* (ids in report order, failed count) of a predlab/report document. *)
let report_verdict doc =
  let experiments =
    Option.value ~default:[] (Option.bind (Json.member "experiments" doc) Json.to_list)
  in
  let ids = List.filter_map (member_string "id") experiments in
  let failed = List.length (List.filter (fun j -> not (experiment_ok j)) experiments) in
  (ids, failed)

let elapsed_of doc = Option.bind (Json.member "elapsed_s" doc) Json.float_value

(* --- set-up time ------------------------------------------------------- *)

(* Process start to first experiment: the wall time of `predlab run FIG1`
   minus the time the report says the experiment run took. FIG1 is the
   first experiment of the registry. Returns the set-up times of the [n]
   probes that passed, and how many failed. *)
let setup_probes ctx n =
  let out_path = Filename.concat ctx.out_dir "setup.json" in
  let one () =
    let code, wall, _ =
      run_captured ~poll_rss:false ~out_path ctx.predlab
        [ "run"; "FIG1"; "--jobs"; "1"; "--format"; "json" ]
    in
    match Json.parse (read_file out_path) with
    | Ok doc when code = 0 -> (
        let ids, failed = report_verdict doc in
        match elapsed_of doc with
        | Some e when ids = [ "FIG1" ] && failed = 0 -> Some (wall -. e)
        | _ -> None)
    | Ok _ | Error _ -> None
  in
  let results = List.init n (fun _ -> one ()) in
  remove_quietly out_path;
  let times = List.filter_map Fun.id results in
  (times, n - List.length times)

(* Set-up probes gathered through a run. The reported set-up time is
   their 10th percentile: a shared host's slow moments move it least. *)
type probes = { mutable times : float list; mutable run : int; mutable failed : int }

let new_probes () = { times = []; run = 0; failed = 0 }

let probe ctx p n =
  let times, failed = setup_probes ctx n in
  p.times <- times @ p.times;
  p.run <- p.run + n;
  p.failed <- p.failed + failed

let setup_s p = percentile 10. p.times

(* A batch run's result: its own [metrics], ok_frac, and the per-class
   serve latencies of its serve probe [sp]; the probe's replies count in
   attempted and failed. *)
let batch_result ctx sp ~attempted ~failed metrics =
  let (n, f), class_metrics, _ = Mix.probe_close ctx sp in
  let attempted = attempted + n and failed = failed + f in
  { attempted; failed;
    metrics = metrics @ [ ("ok_frac", 1. -. fail_frac ~attempted ~failed, "frac") ] @ class_metrics }

(* --- registry ------------------------------------------------------------ *)

let expected_ids = E.ids ()

(* One reproduction: (wall, peak MiB, experiments run, experiments failed). *)
let reproduction ctx =
  let out_path = Filename.concat ctx.out_dir "registry.json" in
  let code, wall, peak =
    run_captured ~out_path ctx.predlab [ "all"; "--jobs"; "1"; "--format"; "json" ]
  in
  let verdict =
    match Json.parse (read_file out_path) with
    | Ok doc ->
      let ids, failed = report_verdict doc in
      let missing = if ids = expected_ids then 0 else 1 in
      let fast_missing = if List.mem "FIG1.FAST" ids then 0 else 1 in
      ( List.length expected_ids,
        if code = 0 then failed + missing + fast_missing
        else max 1 (failed + missing + fast_missing) )
    | Error _ -> (List.length expected_ids, List.length expected_ids)
  in
  remove_quietly out_path;
  let run, failed = verdict in
  (wall, peak, run, failed)

(* Reproductions while another one still fits in --seconds; at least one.
   A reproduction is one process, so the set-up probes and the serve
   probe run on both sides of the loop. *)
let registry_probes_per_side = 48

let registry ctx =
  let sp = Mix.probe_open ~traced:false ctx in
  let p = new_probes () in
  probe ctx p registry_probes_per_side;
  Mix.probe_stretch sp (Mix.probe_blocks / 2);
  let t0 = now () in
  let rec loop acc =
    let ((wall, _, _, _) as r) = reproduction ctx in
    if now () -. t0 +. wall > ctx.seconds then r :: acc else loop (r :: acc)
  in
  let reps = loop [] in
  probe ctx p registry_probes_per_side;
  let walls = List.map (fun (w, _, _, _) -> w) reps in
  let attempted = p.run + List.fold_left (fun a (_, _, r, _) -> a + r) 0 reps in
  let failed = p.failed + List.fold_left (fun a (_, _, _, f) -> a + f) 0 reps in
  batch_result ctx sp ~attempted ~failed
    [ ("setup_s", setup_s p, "s");
      ("wall_s", median walls, "s");
      ("peak_rss_mb", List.fold_left (fun a (_, p, _, _) -> Float.max a p) 0. reps, "MB") ]

(* --- figures ------------------------------------------------------------- *)

let rounds_per_sample = 10

(* Run one experiment as `predlab run ID --jobs 1` does; true iff it
   completed with every check passing. The kernel evaluations its report
   counts (an Instrument delta) are kept per id. *)
let evals = Hashtbl.create 32

let run_experiment ((id, _, _) as entry) =
  match E.run_supervised ~jobs:1 ~entries:[ entry ] () with
  | [ s ] -> (
      Hashtbl.replace evals id s.E.s_timing.Predictability.Report.evals;
      s.E.s_status = Predictability.Report.Completed
      && match s.E.s_outcome with
      | Some o -> o.Predictability.Report.checks <> [] && Predictability.Report.all_passed o
      | None -> false)
  | _ -> false

let traced_experiment ((id, _, _) as entry) =
  Span.with_ ("predictability.exp." ^ id) (fun () -> run_experiment entry)

(* One round in a seeded order. Returns the number of failed experiments. *)
let round ?(traced = false) rng =
  let order = Prelude.Rng.shuffle rng figure_entries in
  List.fold_left
    (fun failed entry ->
       let ok = if traced then traced_experiment entry else run_experiment entry in
       if ok then failed else failed + 1)
    0 order

let figures_present () =
  List.exists (fun (id, _, _) -> id = "FIG1.FAST") figure_entries

(* Set-up probes before the first sample and after every sample, and a
   stretch of the serve probe after every sample, so both are spread
   through the run. *)
let figures_probes_first = 16
let figures_probes_per_sample = 8
let figures_serve_blocks_per_sample = 10

let figures ctx =
  let rng = Prelude.Rng.make ctx.seed in
  (* Warm-up round: lazy tables and the heap settle before timing. *)
  let warm_failed = round rng in
  let sp = Mix.probe_open ~traced:false ctx in
  let p = new_probes () in
  probe ctx p figures_probes_first;
  let rec loop t0 samples failed =
    let f, dt =
      timed (fun () ->
          let f = ref 0 in
          for _ = 1 to rounds_per_sample do f := !f + round rng done;
          !f)
    in
    probe ctx p figures_probes_per_sample;
    Mix.probe_stretch sp figures_serve_blocks_per_sample;
    let samples = dt :: samples and failed = failed + f in
    if now () -. t0 >= ctx.seconds && List.length samples >= 3 then (samples, failed)
    else loop t0 samples failed
  in
  let samples, failed = loop (now ()) [] 0 in
  let n_exp = List.length figure_entries in
  let attempted = p.run + (n_exp * (1 + (rounds_per_sample * List.length samples))) in
  let failed = p.failed + warm_failed + failed + if figures_present () then 0 else 1 in
  batch_result ctx sp ~attempted ~failed
    [ ("setup_s", setup_s p, "s");
      ("wall_s", median samples, "s");
      ("peak_rss_mb", self_peak_rss_mb (), "MB") ]

(* --- traced passes ------------------------------------------------------- *)

(* registry, traced: every experiment in registry order, in this process,
   one span each, under one registry.all span. Tracing overhead comes from
   the experiments other than RW.CACHE and DEF.SAMPLE, run once more
   without spans: the two heavy ones carry one span each over seconds of
   work, so timing them twice would add only noise (and run time). The
   overhead is the traced-minus-untraced difference of the cheap ones over
   the untraced estimate of the whole pass. Returns (untraced estimate,
   traced wall, attempted, failed). *)
let registry_traced () =
  let heavy = [ "RW.CACHE"; "DEF.SAMPLE" ] in
  let cheap = List.filter (fun (id, _, _) -> not (List.mem id heavy)) E.all in
  let untraced_failed, untraced_cheap =
    timed (fun () ->
        List.fold_left (fun f e -> if run_experiment e then f else f + 1) 0 cheap)
  in
  let traced_failed, traced_wall =
    timed (fun () ->
        Span.with_ "registry.all" (fun () ->
            List.fold_left (fun f entry -> if traced_experiment entry then f else f + 1) 0 E.all))
  in
  let traced_cheap =
    List.fold_left (fun acc (id, _, _) -> acc +. Span.total ("predictability.exp." ^ id)) 0. cheap
  in
  let untraced = traced_wall -. (traced_cheap -. untraced_cheap) in
  (untraced, traced_wall, List.length cheap + List.length E.all, untraced_failed + traced_failed)

let traced_rounds = 10

(* figures, traced: [traced_rounds] pairs of rounds, each pair one round
   without spans and one with, so drift over the run hits both sides. *)
let figures_traced ctx =
  let rng = Prelude.Rng.make ctx.seed in
  ignore (round rng);
  let untraced = ref 0. and traced = ref 0. and failed = ref 0 in
  for _ = 1 to traced_rounds do
    let f, dt = timed (fun () -> round rng) in
    untraced := !untraced +. dt;
    let f', dt' =
      timed (fun () -> Span.with_ "figures.round" (fun () -> round ~traced:true rng))
    in
    traced := !traced +. dt';
    failed := !failed + f + f'
  done;
  let n = (1 + (2 * traced_rounds)) * List.length figure_entries in
  (!untraced, !traced, n, !failed)

(* Experiments no traced pass has run yet get one span each, so every
   per-experiment wall is measured whatever the workload. *)
let remaining_experiments () =
  List.fold_left
    (fun (n, failed) ((id, _, _) as entry) ->
       let name = "predictability.exp." ^ id in
       if Span.named name <> [] then (n, failed)
       else if traced_experiment entry then (n + 1, failed)
       else (n + 1, failed + 1))
    (0, 0) E.all

let experiment_metrics () =
  let named = [ "RW.CACHE"; "DEF.SAMPLE"; "DEF.CERT"; "FIG1.FAST"; "FIG1.SOUND"; "EXT.ATLAS" ] in
  let wall id = span_median ("predictability.exp." ^ id) in
  let rest =
    List.fold_left
      (fun acc id -> if List.mem id named then acc else acc +. wall id)
      0. expected_ids
  in
  List.map (fun id -> ("predictability.exp." ^ id ^ ".wall_s", wall id, "s")) named
  @ [ ("predictability.exp.rest.wall_s", rest, "s");
      ("predictability.exp.DEF.SAMPLE.evals",
       float_of_int (Option.value ~default:0 (Hashtbl.find_opt evals "DEF.SAMPLE")), "count") ]
