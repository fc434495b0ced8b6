(* serve_mix: a closed loop against a `predlab serve --conns 2 --jobs 1`
   daemon. Two clients, each on one persistent connection, send the next
   request only when the previous reply has arrived. Every client works
   in blocks of 12 requests — 10 eval, 1 sample, 1 certify, in a seeded
   order — so each block has the same composition whatever the seed:
   - eval draws a workload, then a state and an input index inside that
     workload's standard state set and its Sampled.input_cap-capped
     input set, so every eval is a valid cell;
   - sample and certify walk a seeded permutation of the 14 workloads,
     sample with a seeded sampler seed.
   The mix is synthetic: no recorded traffic exists. Its shares follow
   one rule, stated in README.md: as many replies beyond each named
   percentile (eval p99, sample p90, certify p90) for every class.
   After the loop every reply is checked: each envelope must be ok, each
   eval's time_cycles must equal Fastpath.Engine.time in this process, and
   a seeded subset of sample/certify replies must be byte-identical to the
   envelope built here from the CLI's --format json constructors. *)

open Util
module Json = Prelude.Json
module P = Serve.Protocol
module Lineio = Prelude.Lineio
module Rng = Prelude.Rng

type op = Eval | Sample | Certify

let op_name = function Eval -> "eval" | Sample -> "sample" | Certify -> "certify"
let ops = [ Eval; Sample; Certify ]

type req = { op : op; request : P.request; line : string }

type record = {
  req : req;
  reply : string option;  (* None: the connection failed *)
  latency : float;
}

(* --- the seeded mix ------------------------------------------------------ *)

(* p99 of n evals and p90 of n / 10 samples (or certifies) have equally
   many replies beyond them. *)
let block_ops = List.init 10 (fun _ -> Eval) @ [ Sample; Certify ]

type gen = {
  rng : Rng.t;
  sample_cycle : string array;
  certify_cycle : string array;
  mutable n_sample : int;
  mutable n_certify : int;
}

let names = List.map fst Isa.Workload.registry

let gen ~seed ~client =
  let rng = Rng.split_key (Rng.make seed) client in
  let cycle () = Array.of_list (Rng.shuffle rng names) in
  let sample_cycle = cycle () in
  let certify_cycle = cycle () in
  { rng; sample_cycle; certify_cycle; n_sample = 0; n_certify = 0 }

(* (states, inputs) per workload: the daemon's standard cell space. *)
let dims =
  lazy
    (List.map
       (fun c -> (c.Layers.name, (Array.length c.Layers.states, Array.length c.Layers.inputs)))
       (Lazy.force Layers.all_cells))

let make_req op request = { op; request; line = Json.to_string (P.request_to_json request) }

let next_req g op =
  match op with
  | Eval ->
    let workload = Rng.pick g.rng names in
    let n_states, n_inputs = List.assoc workload (Lazy.force dims) in
    let state = Rng.int g.rng n_states in
    let input = Rng.int g.rng n_inputs in
    make_req Eval (P.Eval { workload; state; input })
  | Sample ->
    let w = g.sample_cycle.(g.n_sample mod Array.length g.sample_cycle) in
    g.n_sample <- g.n_sample + 1;
    let seed = Rng.int g.rng 1_000_000 in
    make_req Sample
      (P.Sample { workloads = [ w ]; seed = Some seed; samples = None; confidence = None })
  | Certify ->
    let w = g.certify_cycle.(g.n_certify mod Array.length g.certify_cycle) in
    g.n_certify <- g.n_certify + 1;
    make_req Certify (P.Certify { workloads = [ w ] })

let next_block g = List.map (next_req g) (Rng.shuffle g.rng block_ops)

(* --- connections and the daemon ----------------------------------------- *)

type conn = { fd : Unix.file_descr; reader : Lineio.reader }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; reader = Lineio.reader fd }
  | exception Unix.Unix_error _ -> Unix.close fd; None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let round_trip c line =
  match Lineio.write_line ~deadline_s:60. c.fd line with
  | Error _ -> None
  | Ok () -> (
      match Lineio.read_line ~idle_s:120. c.reader with
      | `Line s -> Some s
      | `Partial _ | `Eof | `Oversized | `Idle -> None)

let envelope_ok line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member "ok" j) Json.bool_value = Some true
  | Error _ -> false

type daemon = { pid : int; socket : string; setup : float }

let live = ref []
let counter = ref 0

let stats_line = Json.to_string (P.request_to_json P.Stats)
let shutdown_line = Json.to_string (P.request_to_json P.Shutdown)

(* Spawn a daemon; its set-up time runs from the spawn to the first
   answered request on the first accepted connection. *)
let start ctx =
  incr counter;
  let socket = Filename.concat ctx.out_dir (Printf.sprintf "serve%d.sock" !counter) in
  remove_quietly socket;
  let t0 = now () in
  let pid =
    spawn ctx.predlab [ "serve"; "--socket"; socket; "--conns"; "2"; "--jobs"; "1" ]
  in
  live := pid :: !live;
  let rec wait () =
    if now () -. t0 > 60. then failwith "predlab serve did not come up within 60 s";
    match connect socket with
    | None -> Unix.sleepf 0.00005; wait ()
    | Some c ->
      let reply = round_trip c stats_line in
      let setup = now () -. t0 in
      close c;
      (match reply with
       | Some l when envelope_ok l -> ()
       | _ -> failwith "predlab serve answered its first stats request with an error");
      setup
  in
  { pid; socket; setup = wait () }

let stats d =
  match connect d.socket with
  | None -> None
  | Some c ->
    let reply = round_trip c stats_line in
    close c;
    Option.bind reply (fun l ->
        match Json.parse l with Ok j -> Json.member "result" j | Error _ -> None)

let stop d =
  (match connect d.socket with
   | Some c -> ignore (round_trip c shutdown_line); close c
   | None -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (waitpid_retry d.pid);
  live := List.filter (fun p -> p <> d.pid) !live;
  remove_quietly d.socket;
  remove_quietly (d.socket ^ ".lock")

(* Stop whatever is still running when the benchmark exits early. *)
let kill_live () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (try waitpid_retry pid with Unix.Unix_error _ -> Unix.WEXITED 0))
    !live;
  live := []

(* --- one closed-loop session --------------------------------------------- *)

type session = {
  warm : record list;  (* checked, but not timed *)
  records : record list;
  blocks : (bool * float) list;  (* (traced, seconds) per completed client block *)
  elapsed : float;
  stats : Json.t option;
  peak_mb : float;
}

let client ~socket ~deadline ~max_blocks ~trace_block g =
  let records = ref [] and blocks = ref [] in
  let conn = ref (connect socket) in
  let send req =
    let t0 = now () in
    let reply =
      match !conn with
      | None -> None
      | Some c -> (
          match round_trip c req.line with
          | Some l -> Some l
          | None -> close c; conn := connect socket; None)
    in
    records := { req; reply; latency = now () -. t0 } :: !records
  in
  let rec loop n =
    if n < max_blocks && now () < deadline then begin
      let block = next_block g in
      let traced = trace_block n in
      let t0 = now () in
      if traced then
        Span.with_ "serve.client.block" (fun () ->
            List.iter (fun r -> Span.with_ ("serve.request." ^ op_name r.op) (fun () -> send r)) block)
      else List.iter send block;
      blocks := (traced, now () -. t0) :: !blocks;
      loop (n + 1)
    end
  in
  loop 0;
  Option.iter close !conn;
  (List.rev !records, !blocks)

(* One eval per workload first, so engines are resident before timing. *)
let warm_up d =
  match connect d.socket with
  | None -> [ ]
  | Some c ->
    let rs =
      List.map
        (fun w ->
           let req = make_req Eval (P.Eval { workload = w; state = 0; input = 0 }) in
           let t0 = now () in
           let reply = round_trip c req.line in
           { req; reply; latency = now () -. t0 })
        names
    in
    close c;
    rs

(* An open session against daemon [d]. Each client keeps its generator
   across the session's closed-loop stretches, so the stretches together
   send the same requests as one long stretch would. *)
type live = {
  d : daemon;
  gens : gen list;
  warm_records : record list;
  mutable parts : (record list * (bool * float) list) list;
  mutable busy : float;
}

let open_session ctx d =
  ignore (Lazy.force dims);  (* forced once, before the client domains share it *)
  { d; gens = List.init 2 (fun i -> gen ~seed:ctx.seed ~client:i);
    warm_records = warm_up d; parts = []; busy = 0. }

(* Both clients in a closed loop until [seconds] have passed or each has
   sent [max_blocks] blocks. *)
let stretch ?(max_blocks = max_int) ~trace_block l seconds =
  let deadline = now () +. seconds in
  let results, dt =
    timed (fun () ->
        List.map Domain.join
          (List.map
             (fun g ->
                Domain.spawn (fun () ->
                    client ~socket:l.d.socket ~deadline ~max_blocks ~trace_block g))
             l.gens))
  in
  l.parts <- results @ l.parts;
  l.busy <- l.busy +. dt

let close_session l =
  { warm = l.warm_records; records = List.concat_map fst l.parts;
    blocks = List.concat_map snd l.parts; elapsed = l.busy; stats = stats l.d;
    peak_mb = peak_rss_mb (string_of_int l.d.pid) }

(* --- verification ----------------------------------------------------------- *)

type verdict = {
  attempted : int;
  failed : int;
  compute : (op * float list) list;  (* in-process seconds per checked request *)
}

let engines = Hashtbl.create 16

let engine_for c =
  match Hashtbl.find_opt engines c.Layers.name with
  | Some e -> e
  | None ->
    let e = Fastpath.Engine.create ~memo:true c.Layers.program in
    Hashtbl.replace engines c.Layers.name e;
    e

let expected_reply req =
  match req.request with
  | P.Sample { workloads = [ w ]; seed; _ } ->
    let spec = { Sampling.Sampler.default with seed = Option.get seed } in
    let entry = (w, List.assoc w Isa.Workload.registry) in
    let row = Predictability.Sampled.analyze ~jobs:1 ~spec ~cross_check:false entry in
    Json.to_string (P.ok ~op:"sample" (Predictability.Sampled.report_to_json ~jobs:1 [ row ]))
  | P.Certify { workloads = [ w ] } ->
    let row = Predictability.Certifier.row ((List.assoc w Isa.Workload.registry) ()) in
    Json.to_string (P.ok ~op:"certify" (Predictability.Certifier.report_to_json [ row ]))
  | _ -> invalid_arg "expected_reply"

(* Sample and certify replies checked byte for byte: this many of each
   per session, picked by the seed. *)
let byte_checked = 8

let verify ctx s =
  let cells = Lazy.force Layers.all_cells in
  let compute = Hashtbl.create 3 in
  let note op dt = Hashtbl.replace compute op (dt :: Option.value ~default:[] (Hashtbl.find_opt compute op)) in
  let rng = Rng.make (ctx.seed + 1) in
  let pick op =
    let of_op = List.filter (fun r -> r.req.op = op) s.records in
    List.filteri (fun i _ -> i < byte_checked) (Rng.shuffle rng of_op)
  in
  let checked = pick Sample @ pick Certify in
  let bad r =
    match r.reply with
    | None -> true
    | Some line when not (envelope_ok line) -> true
    | Some line -> (
        match r.req.request with
        | P.Eval { workload; state; input } ->
          let c = List.find (fun c -> c.Layers.name = workload) cells in
          let e = engine_for c in
          let t, dt = timed (fun () -> Fastpath.Engine.time e c.Layers.states.(state) c.Layers.inputs.(input)) in
          note Eval dt;
          let got =
            match Json.parse line with
            | Ok j -> Option.bind (Json.member "result" j) (fun r -> Option.bind (Json.member "time_cycles" r) Json.int_value)
            | Error _ -> None
          in
          got <> Some t
        | _ when List.memq r checked ->
          let expected, dt = timed (fun () -> expected_reply r.req) in
          note r.req.op dt;
          not (String.equal expected line)
        | _ -> false)
  in
  let sent = s.warm @ s.records in
  let failed = List.length (List.filter bad sent) in
  let shed =
    match Option.bind s.stats (fun j -> Option.bind (Json.member "shed" j) Json.int_value) with
    | Some n -> n
    | None -> 1  (* stats unavailable: count it as a failure *)
  in
  { attempted = List.length sent; failed = failed + shed;
    compute = List.map (fun op -> (op, Option.value ~default:[] (Hashtbl.find_opt compute op))) ops }

(* --- metrics ------------------------------------------------------------------ *)

let latencies s op =
  List.filter_map (fun r -> if r.req.op = op && r.reply <> None then Some r.latency else None) s.records

let pct s op p = percentile p (latencies s op) *. 1000.

(* Median client latency per class: end-to-end metrics on every workload,
   from the measured session on serve_mix and from [probe] on the batch
   workloads. The named tails are layer metrics (see README.md). *)
let class_metrics s =
  List.map (fun op -> ("serve_" ^ op_name op ^ "_p50_ms", pct s op 50., "ms")) ops

(* Mean seconds of [f] over [xs], timed as one loop. *)
let per_item f xs =
  match xs with
  | [] -> 0.
  | _ ->
    let (), dt = timed (fun () -> List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs) in
    dt /. float_of_int (List.length xs)

let layer_metrics s v =
  let stat key =
    Option.value ~default:0
      (Option.bind s.stats (fun j -> Option.bind (Json.member key j) Json.int_value))
  in
  let replies op =
    List.filter_map
      (fun r -> if r.req.op = op then Option.bind r.reply (fun l -> Result.to_option (Json.parse l)) else None)
      s.records
  in
  let lines op = List.filter_map (fun r -> if r.req.op = op then Some r.req.line else None) s.records in
  let parsed op = List.filter_map (fun l -> Result.to_option (Json.parse l)) (lines op) in
  let parse op = per_item Json.parse (lines op) in
  let of_json op = per_item P.request_of_json (parsed op) in
  let emit op = per_item Json.to_string (replies op) in
  let all_lines = List.concat_map lines ops in
  let transport op =
    (median (latencies s op)
     -. (median (List.assoc op v.compute) +. parse op +. of_json op +. emit op))
    *. 1000.
  in
  let hits = stat "memo_hits" and misses = stat "memo_misses" in
  [ ("prelude.json.parse.us", per_item Json.parse all_lines *. 1e6, "us");
    ("serve.protocol.request_of_json.us",
     per_item P.request_of_json (List.concat_map parsed ops) *. 1e6, "us");
    ("prelude.json.to_string.us",
     per_item Json.to_string (List.concat_map replies ops) *. 1e6, "us") ]
  @ List.map (fun op -> ("serve.transport." ^ op_name op ^ ".ms", transport op, "ms")) ops
  @ [ ("serve.eval.p99_ms", pct s Eval 99., "ms");
      ("serve.sample.p90_ms", pct s Sample 90., "ms");
      ("serve.certify.p90_ms", pct s Certify 90., "ms");
      ("serve.req_per_s", float_of_int (List.length s.records) /. s.elapsed, "1/s");
      ("serve.shed", float_of_int (stat "shed"), "count");
      ("serve.errors", float_of_int (stat "errors"), "count");
      ("serve.memo_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "frac") ]

(* --- the workload ------------------------------------------------------------ *)

let with_daemon ctx f =
  let d = start ctx in
  match f d with
  | v -> stop d; v
  | exception e -> stop d; raise e

(* Set-up times come from throwaway daemons started before, between and
   after the measured session's stretches, so they see the host all
   through the run; the reported value is their 10th percentile, which
   slow moments of a shared host move least. *)
let segments = 4
let daemons_per_gap = 10

let run ctx =
  let setups = ref [] in
  let throwaway () =
    for _ = 1 to daemons_per_gap do setups := with_daemon ctx (fun d -> d.setup) :: !setups done
  in
  let s =
    with_daemon ctx (fun d ->
        setups := d.setup :: !setups;
        let l = open_session ctx d in
        throwaway ();
        for _ = 1 to segments do
          stretch ~trace_block:(fun _ -> false) l (ctx.seconds /. float_of_int segments);
          throwaway ()
        done;
        close_session l)
  in
  let v = verify ctx s in
  { attempted = v.attempted; failed = v.failed;
    metrics =
      [ ("setup_s", percentile 10. !setups, "s");
        ("wall_s", median (List.map snd s.blocks), "s");
        ("peak_rss_mb", s.peak_mb, "MB");
        ("ok_frac", 1. -. fail_frac ~attempted:v.attempted ~failed:v.failed, "frac") ]
      @ class_metrics s }

(* Traced: one session of half the budget in which every client
   alternates untraced and traced blocks, so drift over the session hits
   both sides; per-layer serve numbers come from the whole session. Returns
   (untraced block median, traced block median, verdict, layer metrics). *)
let traced ctx =
  let s =
    with_daemon ctx (fun d ->
        let l = open_session ctx d in
        stretch ~trace_block:(fun n -> n mod 2 = 1) l (ctx.seconds /. 2.);
        close_session l)
  in
  let v = verify ctx s in
  let blocks traced = median (List.filter_map (fun (t, dt) -> if t = traced then Some dt else None) s.blocks) in
  (blocks false, blocks true, (v.attempted, v.failed), layer_metrics s v)

(* The serve probe of the batch workloads: one daemon for the whole run,
   driven in stretches that the workload spreads through its measurement,
   so one slow moment of the host touches few of its replies. Its fixed
   112 blocks per client are 8 turns of each client's sample and certify
   cycles over the 14 workloads, so every seed sends the same work; that
   is 224 replies per class for each median, and more than 10 beyond each
   class's named percentile. *)
type probe = { live : live; traced : bool; mutable sent : int }

let probe_blocks = 112

let probe_open ~traced ctx = { live = open_session ctx (start ctx); traced; sent = 0 }

(* Up to [blocks] more blocks per client. *)
let probe_stretch p blocks =
  let blocks = min blocks (probe_blocks - p.sent) in
  if blocks > 0 then begin
    stretch ~max_blocks:blocks ~trace_block:(fun _ -> p.traced) p.live 120.;
    p.sent <- p.sent + blocks
  end

(* Sends whatever blocks are left, stops the daemon and checks every
   reply. Returns (verdict, per-class metrics, layer metrics). *)
let probe_close ctx p =
  probe_stretch p probe_blocks;
  let s = close_session p.live in
  stop p.live.d;
  let v = verify ctx s in
  ((v.attempted, v.failed), class_metrics s, layer_metrics s v)

let probe ~traced ctx = probe_close ctx (probe_open ~traced ctx)
