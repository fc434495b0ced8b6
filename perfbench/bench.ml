(* predlab's end-to-end benchmark. See README.md in this directory.

   bench --workload registry|figures|serve_mix --seed N --seconds S
         --trace 0|1 --predlab PATH [--commit ID]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   makes the separate traced run that gives the per-layer metrics. The
   last line of standard output is the result object; the line before it
   is the host fingerprint. *)

open Util
module Json = Prelude.Json

let workloads = [ "registry"; "figures"; "serve_mix" ]

let usage () =
  prerr_endline
    "usage: bench --workload registry|figures|serve_mix --seed N --seconds S \
     --trace 0|1 --predlab PATH [--commit ID]";
  exit 2

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace get (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let find k = match Hashtbl.find_opt get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (find k) with Some n -> n | None -> usage () in
  let workload = find "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  ( workload, trace = 1,
    { seed = int "seed"; seconds = float_of_int seconds; predlab = find "predlab";
      out_dir = "perfbench/out" },
    Option.value ~default:"unknown" (Hashtbl.find_opt get "commit") )

(* nproc, OCaml version, commit, seed and the workload's job counts. *)
let fingerprint ~workload ~commit ctx =
  let jobs =
    match workload with
    | "serve_mix" -> [ ("daemon_jobs", Json.Int 1); ("daemon_conns", Json.Int 2); ("clients", Json.Int 2) ]
    | _ -> [ ("jobs", Json.Int 1) ]
  in
  Json.Obj
    ([ ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ("ocaml", Json.String Sys.ocaml_version);
       ("commit", Json.String commit);
       ("seed", Json.Int ctx.seed);
       ("workload", Json.String workload) ]
     @ jobs)

(* --- traced run ------------------------------------------------------------ *)

let overhead ~untraced ~traced = (traced -. untraced) /. untraced

let traced_run workload ctx =
  Span.enabled := true;
  let ( +! ) = Layers.( +! ) in
  let e2e_verdict, overhead_frac, serve_layers =
    match workload with
    | "registry" ->
      let untraced, traced, n, f = Batch.registry_traced () in
      let probe_verdict, _, serve = Mix.probe ~traced:true ctx in
      ((n, f) +! probe_verdict, overhead ~untraced ~traced, serve)
    | "figures" ->
      let untraced, traced, n, f = Batch.figures_traced ctx in
      let probe_verdict, _, serve = Mix.probe ~traced:true ctx in
      ((n, f) +! probe_verdict, overhead ~untraced ~traced, serve)
    | _ ->
      let untraced, traced, verdict, serve = Mix.traced ctx in
      (verdict, overhead ~untraced ~traced, serve)
  in
  let verdict =
    e2e_verdict +! Batch.remaining_experiments () +! Layers.cache_metrics ()
    +! Layers.sampler () +! Layers.fastpath () +! Layers.analysis ()
  in
  let metrics =
    [ ("trace.overhead_frac", overhead_frac, "frac") ]
    @ Batch.experiment_metrics () @ Layers.cache_metric_metrics ()
    @ Layers.sampler_metrics () @ Layers.fastpath_metrics ()
    @ Layers.analysis_metrics () @ serve_layers
  in
  (verdict, metrics)

(* --- main --------------------------------------------------------------------- *)

let metric_json (name, value, unit) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let () =
  let workload, trace, ctx, commit = parse_args () in
  Prelude.Parallel.set_default_jobs 1;
  (try Unix.mkdir ctx.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit Mix.kill_live;
  let host = fingerprint ~workload ~commit ctx in
  let attempted, failed, metrics =
    if trace then begin
      let (attempted, failed), metrics = traced_run workload ctx in
      let path = Filename.concat ctx.out_dir (Printf.sprintf "trace-%s-%d.json" workload ctx.seed) in
      Span.write_chrome ~metadata:host path;
      Printf.eprintf "trace written to %s\n" path;
      Span.print_table stderr;
      (attempted, failed, metrics)
    end
    else begin
      let r =
        match workload with
        | "registry" -> Batch.registry ctx
        | "figures" -> Batch.figures ctx
        | _ -> Mix.run ctx
      in
      (r.attempted, r.failed, r.metrics)
    end
  in
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "metric %s is not a finite number\n" n) bad;
  let failed = failed + List.length bad in
  let metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u)) metrics in
  print_endline (Json.to_string (Json.Obj [ ("host", host) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric_json metrics)) ]))
