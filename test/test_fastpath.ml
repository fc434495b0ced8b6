(* Tests for the fast-path T_p(q,i) engine: packed replay equivalence at
   every layer (policy sets, caches, predictors), engine-vs-interpreter
   bit-identity, memo-table behaviour, and cross-jobs determinism. *)

let reg = Isa.Reg.make

(* --- Packed replay vs persistent structures ------------------------------ *)

let cache_config_gen =
  QCheck.Gen.(
    let* kind =
      oneofl
        [ Cache.Policy.Lru; Cache.Policy.Fifo; Cache.Policy.Plru;
          Cache.Policy.Mru; Cache.Policy.Round_robin ]
    in
    let* sets = oneofl [ 1; 2; 4 ] in
    let* ways =
      match kind with
      | Cache.Policy.Plru -> oneofl [ 1; 2; 4 ]
      | _ -> int_range 1 4
    in
    let* line = oneofl [ 1; 2; 16 ] in
    return { Cache.Set_assoc.sets; ways; line; kind })

let replay_vs_access_case =
  QCheck.Gen.(
    let* config = cache_config_gen in
    let* touches = int_range 0 24 in
    let* seed = int_range 0 10_000 in
    let* addrs = list_size (int_range 0 60) (int_range 0 255) in
    return (config, touches, seed, addrs))

let prop_set_assoc_replay_matches_access =
  QCheck.Test.make ~count:500
    ~name:"Set_assoc.replay_access = access (all kinds)"
    (QCheck.make replay_vs_access_case)
    (fun (config, touches, seed, addrs) ->
       let universe = List.init 32 (fun i -> i * 3) in
       let start = Cache.Set_assoc.warmed config ~seed ~touches ~universe in
       let rep = Cache.Set_assoc.replay start in
       let _, _, _ =
         List.fold_left
           (fun (c, k, ()) addr ->
              let hit, c' = Cache.Set_assoc.access c addr in
              let hit' = Cache.Set_assoc.replay_access rep addr in
              if hit <> hit' then
                QCheck.Test.fail_reportf
                  "hit mismatch at access %d (addr %d): %b vs %b" k addr hit
                  hit';
              (c', k + 1, ()))
           (start, 0, ()) addrs
       in
       true)

let prop_replay_reset_restores =
  QCheck.Test.make ~count:200 ~name:"replay_reset restores the template"
    (QCheck.make replay_vs_access_case)
    (fun (config, touches, seed, addrs) ->
       let universe = List.init 32 (fun i -> i * 3) in
       let start = Cache.Set_assoc.warmed config ~seed ~touches ~universe in
       let template = Cache.Set_assoc.replay start in
       let working = Cache.Set_assoc.replay_copy template in
       let run () =
         Cache.Set_assoc.replay_reset ~dst:working ~src:template;
         List.map (Cache.Set_assoc.replay_access working) addrs
       in
       run () = run ())

let predictor_pool =
  [ Branchpred.Predictor.static Branchpred.Predictor.Btfn;
    Branchpred.Predictor.static Branchpred.Predictor.Always_taken;
    Branchpred.Predictor.static
      (Branchpred.Predictor.Per_branch [ (2, true); (5, false) ]);
    Branchpred.Predictor.one_bit ~entries:8 ~init:0;
    Branchpred.Predictor.one_bit ~entries:4 ~init:0x51ed;
    Branchpred.Predictor.two_bit ~entries:8 ~init:1;
    Branchpred.Predictor.two_bit ~entries:16 ~init:0xbeef;
    Branchpred.Predictor.gshare ~entries:16 ~history_bits:4 ~init:0x1234 ]

let branch_events_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* pc = int_range 0 30 in
       let* backward = bool in
       let* taken = bool in
       return { Branchpred.Predictor.pc; backward; taken }))

let prop_predictor_replay_matches_update =
  QCheck.Test.make ~count:500
    ~name:"Predictor.replay_correct = predict/update"
    (QCheck.make
       QCheck.Gen.(
         let* which = int_range 0 (List.length predictor_pool - 1) in
         let* events = branch_events_gen in
         return (which, events)))
    (fun (which, events) ->
       let p0 = List.nth predictor_pool which in
       let rep = Branchpred.Predictor.replay p0 in
       let _ =
         List.fold_left
           (fun p ev ->
              let correct =
                Branchpred.Predictor.predict p ev = ev.Branchpred.Predictor.taken
              in
              let correct' = Branchpred.Predictor.replay_correct rep ev in
              if correct <> correct' then
                QCheck.Test.fail_reportf "correctness mismatch at %d"
                  ev.Branchpred.Predictor.pc;
              Branchpred.Predictor.update p ev)
           p0 events
       in
       true)

let test_policy_pack_injective () =
  List.iter
    (fun kind ->
       let ways = if kind = Cache.Policy.Plru then 4 else 3 in
       let states =
         List.of_seq
           (Cache.Policy.enumerate_full_states kind ~ways ~blocks:[ 1; 2; 3; 4 ])
       in
       let keys = List.map Cache.Policy.pack states in
       let distinct = Prelude.Listx.uniq Stdlib.compare keys in
       Alcotest.(check int)
         (Cache.Policy.kind_name kind ^ " pack is injective")
         (List.length states) (List.length distinct))
    Cache.Policy.all_kinds

(* --- Engine vs interpreter ----------------------------------------------- *)

let take = Prelude.Listx.take

let engine_matches_interpreter ?predictor name =
  let w = Isa.Workload.find name in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states ?predictor program w in
  let inputs = take 8 w.Isa.Workload.inputs in
  let eng = Fastpath.Engine.create program in
  List.iteri
    (fun qi q ->
       List.iteri
         (fun ii i ->
            let exact = Pipeline.Inorder.time program q i in
            let fast = Fastpath.Engine.time eng q i in
            if exact <> fast then
              Alcotest.failf "%s: cell (%d,%d): exact %d fast %d" name qi ii
                exact fast;
            (* Second call answers from the memo table; must agree. *)
            let again = Fastpath.Engine.time eng q i in
            if again <> fast then
              Alcotest.failf "%s: memo hit differs at (%d,%d)" name qi ii)
         inputs)
    states

let test_engine_vs_interpreter_default () =
  List.iter engine_matches_interpreter
    [ "bubble_sort"; "crc"; "state_machine"; "call_chain" ]

let test_engine_vs_interpreter_dynamic_predictor () =
  let predictor = Branchpred.Predictor.two_bit ~entries:16 ~init:0x51ed in
  List.iter
    (engine_matches_interpreter ~predictor)
    [ "branchy"; "insertion_sort" ]

(* Stateless memory levels make blocks context-free, so this exercises the
   summary-skipping path (with a cached dmem, memory blocks still fall back). *)
let test_engine_summary_paths () =
  let w = Isa.Workload.find "bubble_sort" in
  let program, _ = Isa.Workload.program w in
  let inputs = take 8 w.Isa.Workload.inputs in
  let dcache =
    Cache.Set_assoc.warmed Predictability.Harness.dcache_config ~seed:7
      ~touches:12
      ~universe:(List.init 16 (fun i -> 1000 + i))
  in
  let mems =
    [ Pipeline.Mem_system.perfect;
      { Pipeline.Mem_system.imem = Pipeline.Mem_system.Flat 2;
        dmem = Pipeline.Mem_system.Flat 5 };
      { Pipeline.Mem_system.imem =
          Pipeline.Mem_system.Spm
            { spm = Cache.Scratchpad.make ~base:0 ~size:64; hit = 1; backing = 9 };
        dmem =
          Pipeline.Mem_system.Cached
            { cache = dcache; hit = Predictability.Harness.dcache_hit;
              miss = Predictability.Harness.dcache_miss } } ]
  in
  let eng = Fastpath.Engine.create program in
  List.iter
    (fun mem ->
       let q = Pipeline.Inorder.state ~mem () in
       List.iter
         (fun i ->
            Alcotest.(check int) "summary path agrees"
              (Pipeline.Inorder.time program q i)
              (Fastpath.Engine.time eng q i))
         inputs)
    mems

(* --- Memo table ---------------------------------------------------------- *)

let test_memo_hit_miss_counting () =
  let w = Isa.Workload.find "fir" in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states program w in
  let inputs = Array.of_list (take 6 w.Isa.Workload.inputs) in
  let eng = Fastpath.Engine.create ~memo:true program in
  Alcotest.(check bool) "memoized" true (Fastpath.Engine.memoized eng);
  let q = List.hd states in
  let before = Prelude.Instrument.snapshot () in
  let r1 = Fastpath.Engine.row eng q inputs in
  let mid = Prelude.Instrument.snapshot () in
  let r2 = Fastpath.Engine.row eng q inputs in
  let after = Prelude.Instrument.snapshot () in
  Alcotest.(check bool) "rows agree" true (r1 = r2);
  Alcotest.(check int) "first pass: all misses" (Array.length inputs)
    (mid.Prelude.Instrument.memo_misses - before.Prelude.Instrument.memo_misses);
  Alcotest.(check int) "first pass: no hits" 0
    (mid.Prelude.Instrument.memo_hits - before.Prelude.Instrument.memo_hits);
  Alcotest.(check int) "second pass: all hits" (Array.length inputs)
    (after.Prelude.Instrument.memo_hits - mid.Prelude.Instrument.memo_hits);
  Alcotest.(check int) "second pass: no misses" 0
    (after.Prelude.Instrument.memo_misses - mid.Prelude.Instrument.memo_misses)

(* The serve daemon runs with a bounded memo; the bound must cap occupancy
   (FIFO eviction) without ever changing an answer. *)
let test_memo_bound_caps_occupancy () =
  let w = Isa.Workload.find "fir" in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states program w in
  let inputs = take 8 w.Isa.Workload.inputs in
  let bound = 4 in
  let bounded = Fastpath.Engine.create ~memo:true ~memo_bound:bound program in
  let unbounded = Fastpath.Engine.create ~memo:true program in
  Alcotest.(check (option int)) "bound recorded" (Some bound)
    (Fastpath.Engine.memo_bound bounded);
  Alcotest.(check (option int)) "unbounded engine has no bound" None
    (Fastpath.Engine.memo_bound unbounded);
  List.iter
    (fun q ->
       List.iter
         (fun i ->
            Alcotest.(check int) "bounded answer agrees"
              (Fastpath.Engine.time unbounded q i)
              (Fastpath.Engine.time bounded q i);
            (* Eviction must never overshoot the cap, even transiently. *)
            if Fastpath.Engine.memo_size bounded > bound then
              Alcotest.failf "memo size %d exceeds bound %d"
                (Fastpath.Engine.memo_size bounded) bound)
         inputs)
    states;
  let total_cells = List.length states * List.length inputs in
  Alcotest.(check bool) "workload large enough to force eviction" true
    (total_cells > bound);
  Alcotest.(check bool) "unbounded memo kept everything" true
    (Fastpath.Engine.memo_size unbounded > bound)

let test_memo_bound_evicts_fifo () =
  let w = Isa.Workload.find "fir" in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states program w in
  let inputs = take 4 w.Isa.Workload.inputs in
  let q = List.hd states in
  let eng = Fastpath.Engine.create ~memo:true ~memo_bound:2 program in
  let count f =
    let before = Prelude.Instrument.snapshot () in
    f ();
    let after = Prelude.Instrument.snapshot () in
    (after.Prelude.Instrument.memo_hits - before.Prelude.Instrument.memo_hits,
     after.Prelude.Instrument.memo_misses
     - before.Prelude.Instrument.memo_misses)
  in
  let i0 = List.nth inputs 0 and i1 = List.nth inputs 1 in
  let i2 = List.nth inputs 2 in
  ignore (Fastpath.Engine.time eng q i0);
  ignore (Fastpath.Engine.time eng q i1);
  let hits, _ = count (fun () -> ignore (Fastpath.Engine.time eng q i1)) in
  Alcotest.(check int) "resident cell hits" 1 hits;
  (* A third distinct cell evicts the oldest (i0), not the latest. *)
  ignore (Fastpath.Engine.time eng q i2);
  let hits_i1, _ = count (fun () -> ignore (Fastpath.Engine.time eng q i1)) in
  let _, misses_i0 = count (fun () -> ignore (Fastpath.Engine.time eng q i0)) in
  Alcotest.(check int) "younger cell survived eviction" 1 hits_i1;
  Alcotest.(check int) "oldest cell was evicted" 1 misses_i0

let test_memo_bound_validated () =
  let w = Isa.Workload.find "fir" in
  let program, _ = Isa.Workload.program w in
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Fastpath.Engine.create: memo_bound must be >= 1")
    (fun () -> ignore (Fastpath.Engine.create ~memo_bound:0 program))

(* --- Random programs (straight-line + forward branches) ------------------ *)

(* Terminating by construction: control flow is only forward branches over
   the next segment, so every path runs front to back. Divisions are
   avoided; loads/stores use a freshly set non-negative base register (the
   packed replay requires non-negative addresses, like every real
   workload). *)
let random_program_gen =
  QCheck.Gen.(
    let simple_instr =
      let* rd = int_range 1 5 in
      let* ra = int_range 1 5 in
      let* rb = int_range 1 5 in
      oneofl
        [ Isa.Instr.Alu (Isa.Instr.Add, reg rd, reg ra, reg rb);
          Isa.Instr.Alui (Isa.Instr.Xor, reg rd, reg ra, 13);
          Isa.Instr.Li (reg rd, 7);
          Isa.Instr.Mul (reg rd, reg ra, reg rb);
          Isa.Instr.Sel (reg rd, reg ra, reg rb, reg rd) ]
    in
    let mem_instr =
      let* rd = int_range 1 5 in
      let* base = int_range 0 120 in
      let* off = int_range 0 24 in
      let* store = bool in
      return
        [ Isa.Instr.Li (reg 6, base);
          (if store then Isa.Instr.St (reg rd, reg 6, off)
           else Isa.Instr.Ld (reg rd, reg 6, off)) ]
    in
    let segment k =
      let* body =
        list_size (int_range 1 4)
          (oneof [ map (fun i -> [ i ]) simple_instr; mem_instr ])
      in
      let body = List.concat body in
      let* branched = bool in
      let* cmp = oneofl [ Isa.Instr.Eq; Isa.Instr.Ne; Isa.Instr.Lt ] in
      let* ra = int_range 1 5 in
      let* rb = int_range 1 5 in
      let label = Printf.sprintf "seg%d" k in
      return
        (if branched then
           (Isa.Instr.Br (cmp, reg ra, reg rb, label)
            :: body
            |> List.map (fun i -> Isa.Program.Ins i))
           @ [ Isa.Program.Label label ]
         else List.map (fun i -> Isa.Program.Ins i) body)
    in
    let* n_segments = int_range 1 6 in
    let rec build k =
      if k >= n_segments then return []
      else
        let* seg = segment k in
        let* rest = build (k + 1) in
        return (seg @ rest)
    in
    let* body = build 0 in
    return
      (Isa.Program.link
         [ { Isa.Program.name = "main";
             body = body @ [ Isa.Program.Ins Isa.Instr.Halt ] } ]))

let random_state_gen program =
  QCheck.Gen.(
    let universe =
      List.init (Isa.Program.length program) (fun pc ->
          Isa.Program.instr_address program pc)
    in
    let* mem =
      let* choice = int_range 0 3 in
      match choice with
      | 0 -> return Pipeline.Mem_system.perfect
      | 1 ->
        return
          { Pipeline.Mem_system.imem = Pipeline.Mem_system.Flat 2;
            dmem = Pipeline.Mem_system.Flat 4 }
      | 2 ->
        let* seed = int_range 0 999 in
        let* touches = int_range 0 20 in
        let icache =
          Cache.Set_assoc.warmed Predictability.Harness.icache_config ~seed
            ~touches ~universe
        in
        let dcache =
          Cache.Set_assoc.warmed Predictability.Harness.dcache_config
            ~seed:(seed + 1) ~touches
            ~universe:(List.init 40 (fun i -> 100 + i))
        in
        return
          { Pipeline.Mem_system.imem =
              Pipeline.Mem_system.Cached
                { cache = icache; hit = Predictability.Harness.icache_hit;
                  miss = Predictability.Harness.icache_miss };
            dmem =
              Pipeline.Mem_system.Cached
                { cache = dcache; hit = Predictability.Harness.dcache_hit;
                  miss = Predictability.Harness.dcache_miss } }
      | _ ->
        return
          { Pipeline.Mem_system.imem =
              Pipeline.Mem_system.Spm
                { spm = Cache.Scratchpad.make ~base:0 ~size:48; hit = 1;
                  backing = 6 };
            dmem = Pipeline.Mem_system.Flat 3 }
    in
    let* which = int_range 0 (List.length predictor_pool - 1) in
    return
      (Pipeline.Inorder.state ~mem
         ~predictor:(List.nth predictor_pool which) ()))

let random_input_gen =
  QCheck.Gen.(
    let* regs =
      list_size (int_range 0 4)
        (let* r = int_range 1 5 in
         let* v = int_range (-40) 40 in
         return (reg r, v))
    in
    let* mem =
      list_size (int_range 0 6)
        (let* a = int_range 0 150 in
         let* v = int_range (-9) 9 in
         return (a, v))
    in
    return (Isa.Exec.input ~regs ~mem ()))

let memo_agreement_case =
  QCheck.Gen.(
    let* program = random_program_gen in
    let* states = list_size (int_range 1 3) (random_state_gen program) in
    let* inputs = list_size (int_range 1 4) random_input_gen in
    return (program, states, inputs))

let prop_memoized_agrees_with_unmemoized =
  QCheck.Test.make ~count:200
    ~name:"memoized and unmemoized T_p agree (random programs/states/inputs)"
    (QCheck.make memo_agreement_case)
    (fun (program, states, inputs) ->
       let with_memo = Fastpath.Engine.create ~memo:true program in
       let without = Fastpath.Engine.create ~memo:false program in
       List.for_all
         (fun q ->
            List.for_all
              (fun i ->
                 let exact = Pipeline.Inorder.time program q i in
                 Fastpath.Engine.time with_memo q i = exact
                 && Fastpath.Engine.time without q i = exact
                 (* and the memo hit on re-query *)
                 && Fastpath.Engine.time with_memo q i = exact)
              inputs)
         states)

(* --- Determinism across jobs and engines --------------------------------- *)

let test_jobs_determinism () =
  let w = Isa.Workload.find "bubble_sort" in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states program w in
  let inputs = take 10 w.Isa.Workload.inputs in
  let exact =
    Predictability.Quantify.evaluate ~jobs:1 ~states ~inputs
      ~time:(Predictability.Harness.inorder_time program) ()
  in
  List.iter
    (fun jobs ->
       let timer = Predictability.Harness.inorder_timer ~engine:`Fast program in
       let fast =
         Predictability.Quantify.evaluate_timer ~jobs ~engine:`Fast ~states
           ~inputs timer
       in
       Alcotest.(check bool)
         (Printf.sprintf "fast matrix at jobs=%d equals exact" jobs)
         true (fast = exact);
       (* Re-evaluating through the same timer serves memo hits; the matrix
          must not change. *)
       let again =
         Predictability.Quantify.evaluate_timer ~jobs ~engine:`Fast ~states
           ~inputs timer
       in
       Alcotest.(check bool)
         (Printf.sprintf "memoized re-evaluation at jobs=%d stable" jobs)
         true (again = exact))
    [ 1; 2; 4; 8 ]

let test_quantify_fast_inline_small_matrices () =
  (* Small matrices stay on the calling domain under `Fast; values must be
     engine-independent. *)
  let time q i = (10 * q) + i in
  let states = [ 1; 2; 3 ] in
  let inputs = [ 1; 2; 3; 4 ] in
  let exact = Predictability.Quantify.evaluate ~states ~inputs ~time () in
  let fast =
    Predictability.Quantify.evaluate_timer ~engine:`Fast ~states ~inputs
      (Predictability.Quantify.Scalar time)
  in
  Alcotest.(check bool) "inline fast = exact" true (exact = fast)

let test_quantify_batched_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let bad_width =
    Predictability.Quantify.Batched
      { scalar = (fun _ _ -> 1); row = (fun _ _ -> [| 1 |]) }
  in
  Alcotest.(check bool) "wrong row width rejected" true
    (raises (fun () ->
         Predictability.Quantify.evaluate_timer ~engine:`Fast ~states:[ 0 ]
           ~inputs:[ 0; 1 ] bad_width));
  let negative =
    Predictability.Quantify.Batched
      { scalar = (fun _ _ -> -1); row = (fun _ inputs ->
          Array.map (fun _ -> -1) inputs) }
  in
  Alcotest.(check bool) "non-positive batched cell rejected" true
    (raises (fun () ->
         Predictability.Quantify.evaluate_timer ~engine:`Fast ~states:[ 0 ]
           ~inputs:[ 0; 1 ] negative))

(* --- Cache_metrics against a brute-force sweep ------------------------- *)

(* The metric's definition read literally: at every depth push every
   initial state through the probes, keep every final, and test them all
   (no old block resident; for fill, every final [Policy.equal] to the
   first). The explorer must give the same estimate. *)
let brute_force ~fill kind ~ways ~max_probes =
  let olds = List.init ways (fun i -> -(i + 1)) in
  let holds j =
    let probes = List.init j (fun i -> i + 1) in
    let initial =
      List.of_seq
        (Cache.Policy.enumerate_full_states kind ~ways ~blocks:(olds @ probes))
    in
    let finals =
      List.map
        (fun s ->
           List.fold_left (fun s p -> snd (Cache.Policy.access s p)) s probes)
        initial
    in
    List.for_all
      (fun s -> not (List.exists (Cache.Policy.resident s) olds))
      finals
    && ((not fill)
        || match finals with
        | [] -> true
        | first :: rest -> List.for_all (Cache.Policy.equal first) rest)
  in
  let rec go j =
    if j > max_probes then Predictability.Cache_metrics.Beyond max_probes
    else if holds j then Predictability.Cache_metrics.Exact j
    else go (j + 1)
  in
  go 1

let test_cache_metrics_vs_brute_force () =
  List.iter
    (fun kind ->
       List.iter
         (fun ways ->
            let max_probes = (2 * ways) + 2 in
            let check name explorer ~fill =
              Alcotest.(check string)
                (Printf.sprintf "%s ways=%d %s"
                   (Cache.Policy.kind_name kind) ways name)
                (Predictability.Cache_metrics.estimate_to_string
                   (brute_force ~fill kind ~ways ~max_probes))
                (Predictability.Cache_metrics.estimate_to_string
                   (explorer kind ~ways ~max_probes))
            in
            check "evict" (fun k -> Predictability.Cache_metrics.evict k) ~fill:false;
            check "fill" (fun k -> Predictability.Cache_metrics.fill k) ~fill:true)
         (if kind = Cache.Policy.Plru then [ 2; 4 ] else [ 2; 3 ]))
    Cache.Policy.all_kinds

let () =
  Alcotest.run "fastpath"
    [ ("replay",
       [ QCheck_alcotest.to_alcotest prop_set_assoc_replay_matches_access;
         QCheck_alcotest.to_alcotest prop_replay_reset_restores;
         QCheck_alcotest.to_alcotest prop_predictor_replay_matches_update;
         Alcotest.test_case "Policy.pack injective" `Quick
           test_policy_pack_injective ]);
      ("engine",
       [ Alcotest.test_case "matches interpreter (default states)" `Quick
           test_engine_vs_interpreter_default;
         Alcotest.test_case "matches interpreter (dynamic predictor)" `Quick
           test_engine_vs_interpreter_dynamic_predictor;
         Alcotest.test_case "summary paths agree" `Quick
           test_engine_summary_paths ]);
      ("memo",
       [ Alcotest.test_case "hit/miss counting" `Quick
           test_memo_hit_miss_counting;
         Alcotest.test_case "bound caps occupancy, answers unchanged" `Quick
           test_memo_bound_caps_occupancy;
         Alcotest.test_case "bound evicts FIFO" `Quick
           test_memo_bound_evicts_fifo;
         Alcotest.test_case "bound validated" `Quick test_memo_bound_validated;
         QCheck_alcotest.to_alcotest prop_memoized_agrees_with_unmemoized ]);
      ("determinism",
       [ Alcotest.test_case "jobs 1/2/4/8" `Quick test_jobs_determinism;
         Alcotest.test_case "fast inline small matrices" `Quick
           test_quantify_fast_inline_small_matrices;
         Alcotest.test_case "batched validation" `Quick
           test_quantify_batched_validation ]);
      ("cache-metrics",
       [ Alcotest.test_case "explorer = brute-force sweep" `Quick
           test_cache_metrics_vs_brute_force ]) ]
