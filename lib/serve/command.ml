module Json = Prelude.Json

type workloads = (string * (unit -> Isa.Workload.t)) list

let ( let* ) = Result.bind

let unknown_workload name =
  Printf.sprintf "unknown workload %S; try `predlab workloads`" name

(* [f] over [xs], stopping at the first [Error]. *)
let rec all_ok f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = all_ok f rest in
    Ok (y :: ys)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let select ?only names =
  let* selected =
    match names with
    | [] -> Ok Isa.Workload.registry
    | names ->
      all_ok
        (fun name ->
           match List.assoc_opt name Isa.Workload.registry with
           | Some make -> Ok (name, make)
           | None -> Error (unknown_workload name))
        names
  in
  match only with
  | None -> Ok selected
  | Some substr -> (
      match List.filter (fun (name, _) -> contains name substr) selected with
      | [] -> Error (Printf.sprintf "--only %s matches no workload" substr)
      | matching -> Ok matching)

(* --- Document builders --------------------------------------------------- *)

let run ~jobs ?deadline_s ?(retries = 0) ?journal ?(resume = false) ids =
  let* entries =
    match ids with
    | [] -> Ok Predictability.Experiments.all
    | ids -> all_ok Predictability.Experiments.lookup ids
  in
  let supervision =
    { Predictability.Experiments.default_supervision with
      deadline_s; retries }
  in
  match
    Predictability.Harness.elapsed (fun () ->
        Predictability.Experiments.run_supervised ~jobs ~supervision
          ?journal ~resume ~entries ())
  with
  | exception (Invalid_argument message | Sys_error message) -> Error message
  | results, elapsed_s ->
    Ok
      ( results,
        Predictability.Experiments.supervised_to_json ~jobs ~elapsed_s
          results )

let sample ~jobs ?(check = false) ?seed ?samples ?confidence names =
  let* selected = select names in
  let default = Sampling.Sampler.default in
  let spec =
    { default with
      Sampling.Sampler.seed =
        Option.value ~default:default.Sampling.Sampler.seed seed;
      n_cells = Option.value ~default:default.Sampling.Sampler.n_cells samples;
      confidence =
        Option.value ~default:default.Sampling.Sampler.confidence confidence }
  in
  match
    List.map
      (Predictability.Sampled.analyze ~jobs ~spec ~cross_check:check)
      selected
  with
  | exception Invalid_argument message -> Error message
  | rows -> Ok (rows, Predictability.Sampled.report_to_json ~jobs rows)

let lint ?fixture ?only names =
  let* targets =
    match fixture with
    | Some `Clean ->
      let program, shapes = Dataflow.Fixtures.clean () in
      Ok
        [ ("fixture:clean",
           Dataflow.Lint.check_program program
           @ Dataflow.Lint.check_shapes shapes) ]
    | Some `Dirty ->
      Ok
        [ ("fixture:dirty",
           Dataflow.Lint.check_program (Dataflow.Fixtures.dirty ())) ]
    | None ->
      let* selected = select ?only names in
      Ok
        (List.map
           (fun (name, make) -> (name, Dataflow.Lint.check_workload (make ())))
           selected)
  in
  Ok (targets, Dataflow.Lint.report_to_json targets)

let certify ?fixture ?(require_invariant = false) ?only names =
  let* rows =
    match fixture with
    | Some fixture ->
      let w =
        match fixture with
        | `Leakfree -> Dataflow.Fixtures.leakfree ()
        | `Leaky -> Dataflow.Fixtures.leaky ()
      in
      Ok [ Predictability.Certifier.row ~expect:Analysis.Certify.Invariant w ]
    | None ->
      let expect =
        if require_invariant then Some Analysis.Certify.Invariant else None
      in
      let* selected = select ?only names in
      Ok
        (List.map
           (fun (_, make) -> Predictability.Certifier.row ?expect (make ()))
           selected)
  in
  Ok (rows, Predictability.Certifier.report_to_json rows)

let finding_to_json (f : Predictability.Regression.finding) =
  Json.Obj
    [ ("kind",
       Json.String
         (Predictability.Regression.kind_string f.Predictability.Regression.kind));
      ("subject", Json.String f.Predictability.Regression.subject);
      ("detail", Json.String f.Predictability.Regression.detail) ]

let compare ?tolerance ~baseline ~current () =
  match
    Predictability.Regression.compare_reports ?tolerance_pct:tolerance
      ~baseline ~current ()
  with
  | exception Invalid_argument message -> Error message
  | findings ->
    Ok
      ( findings,
        Json.Obj
          [ ("schema", Json.String "predlab/serve-compare");
            ("version", Json.Int 1);
            ("passed", Json.Bool (findings = []));
            ("findings", Json.List (List.map finding_to_json findings)) ] )

(* --- Replies ------------------------------------------------------------- *)

let reply ~op = function
  | Ok (_, doc) -> Protocol.ok ~op doc
  | Error message -> Protocol.error ~op message

let render ~op doc =
  let pretty = Json.to_string_pretty doc in
  match op with
  | "sample" | "lint" | "certify" -> pretty ^ "\n"
  | _ -> pretty

(* The verdict a result document carries for its op. *)
let verdict ~op doc =
  let count name =
    Option.value ~default:0
      (Option.bind (Json.member name doc) Json.int_value)
  in
  match op with
  | "run" ->
    if count "crashed" > 0 || count "timed_out" > 0 then 3
    else if count "experiments_passed" < count "experiments_total" then 1
    else 0
  | "lint" -> if count "errors" > 0 then 1 else 0
  | "certify" -> if count "contradictions" > 0 then 1 else 0
  | "sample" ->
    let escaped row =
      match Json.member "contained" row with
      | Some (Json.Obj verdicts) ->
        List.exists (fun (_, v) -> v = Json.Bool false) verdicts
      | _ -> false
    in
    let rows =
      Option.value ~default:[]
        (Option.bind (Json.member "workloads" doc) Json.to_list)
    in
    if List.exists escaped rows then 1 else 0
  | "compare" -> if Json.member "passed" doc = Some (Json.Bool false) then 1 else 0
  | _ -> 0

let exit_class envelope =
  let member name = Json.member name envelope in
  let text name = Option.bind (member name) Json.string_value in
  match member "ok", text "status" with
  | Some (Json.Bool true), _ ->
    verdict
      ~op:(Option.value ~default:"" (text "op"))
      (Option.value ~default:Json.Null (member "result"))
  | _, Some "timed_out" -> 3
  | _, Some "overloaded" -> 5
  | _ -> 2
