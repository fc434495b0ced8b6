(* Tests for the cache library: replacement policies (including the known
   characteristic behaviours that distinguish them), the set-associative
   wrapper, scratchpads, the method cache, split caches and locking. *)

(* --- Policy: LRU ------------------------------------------------------ *)

let access_all state tags =
  List.fold_left
    (fun (hits, s) tag ->
       let hit, s = Cache.Policy.access s tag in
       ((if hit then hits + 1 else hits), s))
    (0, state) tags

let test_lru_stack_property () =
  (* After accessing k distinct blocks, LRU holds exactly the k most recent. *)
  let s = Cache.Policy.init Cache.Policy.Lru ~ways:4 in
  let _, s = access_all s [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check bool) "oldest evicted" false (Cache.Policy.resident s 1);
  List.iter
    (fun t -> Alcotest.(check bool) "recent resident" true (Cache.Policy.resident s t))
    [ 2; 3; 4; 5 ]

let test_lru_hit_promotes () =
  let s = Cache.Policy.init Cache.Policy.Lru ~ways:2 in
  let _, s = access_all s [ 1; 2 ] in
  let hit, s = Cache.Policy.access s 1 in   (* promote 1 *)
  Alcotest.(check bool) "hit" true hit;
  let _, s = Cache.Policy.access s 3 in     (* evicts 2, not 1 *)
  Alcotest.(check bool) "1 survived" true (Cache.Policy.resident s 1);
  Alcotest.(check bool) "2 evicted" false (Cache.Policy.resident s 2)

(* --- Policy: FIFO ----------------------------------------------------- *)

let test_fifo_hit_does_not_promote () =
  let s = Cache.Policy.init Cache.Policy.Fifo ~ways:2 in
  let _, s = access_all s [ 1; 2 ] in
  let hit, s = Cache.Policy.access s 1 in   (* hit, but insertion order stays *)
  Alcotest.(check bool) "hit" true hit;
  let _, s = Cache.Policy.access s 3 in     (* evicts 1: oldest insertion *)
  Alcotest.(check bool) "1 evicted despite recent hit" false
    (Cache.Policy.resident s 1);
  Alcotest.(check bool) "2 survived" true (Cache.Policy.resident s 2)

(* --- Policy: PLRU ------------------------------------------------------ *)

let test_plru_fills_invalid_first () =
  let s = Cache.Policy.init Cache.Policy.Plru ~ways:4 in
  let _, s = access_all s [ 1; 2; 3 ] in
  let _, s = Cache.Policy.access s 4 in
  List.iter
    (fun t -> Alcotest.(check bool) "all four resident" true (Cache.Policy.resident s t))
    [ 1; 2; 3; 4 ]

let test_plru_geometry () =
  Alcotest.check_raises "ways=3 rejected"
    (Invalid_argument "Policy.init: PLRU requires ways in {1,2,4,8}")
    (fun () -> ignore (Cache.Policy.init Cache.Policy.Plru ~ways:3))

let test_plru_ways2_is_lru () =
  (* With two ways, tree PLRU degenerates to LRU: same hit/miss sequence. *)
  let trace = [ 1; 2; 1; 3; 2; 3; 1; 1; 2 ] in
  let run kind =
    let s = Cache.Policy.init kind ~ways:2 in
    let hits, _ = access_all s trace in
    hits
  in
  Alcotest.(check int) "hit counts equal"
    (run Cache.Policy.Lru) (run Cache.Policy.Plru)

(* --- Policy: MRU / RR -------------------------------------------------- *)

let test_mru_basic () =
  let s = Cache.Policy.init Cache.Policy.Mru ~ways:4 in
  let _, s = access_all s [ 1; 2; 3; 4 ] in
  List.iter
    (fun t -> Alcotest.(check bool) "resident after fill" true (Cache.Policy.resident s t))
    [ 1; 2; 3; 4 ];
  let hits, _ = access_all s [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "refills all hit" 4 hits

let test_rr_pointer_rotation () =
  let s = Cache.Policy.init Cache.Policy.Round_robin ~ways:2 in
  let _, s = access_all s [ 1; 2 ] in
  let _, s = Cache.Policy.access s 3 in  (* replaces slot 0 (block 1) *)
  Alcotest.(check bool) "1 replaced" false (Cache.Policy.resident s 1);
  let _, s = Cache.Policy.access s 4 in  (* replaces slot 1 (block 2) *)
  Alcotest.(check bool) "2 replaced" false (Cache.Policy.resident s 2);
  Alcotest.(check bool) "3 still in" true (Cache.Policy.resident s 3)

(* --- Policy: generic properties ---------------------------------------- *)

let policy_gen =
  QCheck.oneofl
    [ Cache.Policy.Lru; Cache.Policy.Fifo; Cache.Policy.Plru; Cache.Policy.Mru;
      Cache.Policy.Round_robin ]

let prop_access_inserts =
  QCheck.Test.make ~name:"an accessed block is always resident afterwards"
    ~count:300
    QCheck.(triple policy_gen (oneofl [ 1; 2; 4 ])
              (list_of_size (Gen.int_range 1 20) (int_range 0 9)))
    (fun (kind, ways, trace) ->
       let s = Cache.Policy.init kind ~ways in
       let final =
         List.fold_left (fun s t -> snd (Cache.Policy.access s t)) s trace
       in
       match List.rev trace with
       | [] -> true
       | last :: _ -> Cache.Policy.resident final last)

let prop_contents_bounded =
  QCheck.Test.make ~name:"never more than `ways` blocks resident" ~count:300
    QCheck.(triple policy_gen (oneofl [ 1; 2; 4 ])
              (list_of_size (Gen.int_range 1 30) (int_range 0 9)))
    (fun (kind, ways, trace) ->
       let s = Cache.Policy.init kind ~ways in
       let final =
         List.fold_left (fun s t -> snd (Cache.Policy.access s t)) s trace
       in
       let filled =
         List.length (List.filter (fun c -> c <> None) (Cache.Policy.contents final))
       in
       filled <= ways)

let prop_hit_iff_resident =
  QCheck.Test.make ~name:"access hits exactly when the block was resident"
    ~count:300
    QCheck.(triple policy_gen (oneofl [ 2; 4 ])
              (list_of_size (Gen.int_range 1 25) (int_range 0 7)))
    (fun (kind, ways, trace) ->
       let s = Cache.Policy.init kind ~ways in
       let ok, _ =
         List.fold_left
           (fun (ok, s) t ->
              let was = Cache.Policy.resident s t in
              let hit, s = Cache.Policy.access s t in
              (ok && hit = was, s))
           (true, s) trace
       in
       ok)

let prop_mra_block_survives_next_access =
  (* For recency-respecting policies (LRU, PLRU, MRU) the most recently
     accessed block is never the next victim. FIFO and RR do not have this
     property (insertion order / pointer position can doom the block). *)
  QCheck.Test.make
    ~name:"most-recently-accessed block survives the next access (LRU/PLRU/MRU)"
    ~count:300
    QCheck.(triple
              (oneofl [ Cache.Policy.Lru; Cache.Policy.Plru; Cache.Policy.Mru ])
              (oneofl [ 2; 4 ])
              (list_of_size (Gen.int_range 2 25) (int_range 0 9)))
    (fun (kind, ways, trace) ->
       let s = Cache.Policy.init kind ~ways in
       let ok, _, _ =
         List.fold_left
           (fun (ok, s, last) t ->
              let _, s' = Cache.Policy.access s t in
              let survived =
                match last with
                | Some prev -> Cache.Policy.resident s' prev
                | None -> true
              in
              (ok && survived, s', Some t))
           (true, s, None) trace
       in
       ok)

let prop_lru_contents_are_recency_order =
  QCheck.Test.make ~name:"LRU contents equal the recency order" ~count:300
    QCheck.(pair (oneofl [ 2; 4 ]) (list_of_size (Gen.int_range 1 30) (int_range 0 9)))
    (fun (ways, trace) ->
       let s = Cache.Policy.init Cache.Policy.Lru ~ways in
       let final = List.fold_left (fun s t -> snd (Cache.Policy.access s t)) s trace in
       let expected =
         let rec recency seen = function
           | [] -> List.rev seen
           | t :: rest ->
             if List.mem t seen then recency seen rest else recency (t :: seen) rest
         in
         Prelude.Listx.take ways (recency [] (List.rev trace))
       in
       let actual =
         List.filter_map (fun c -> c) (Cache.Policy.contents final)
       in
       actual = expected)

let prop_fifo_eviction_is_insertion_order =
  (* Maintain a reference FIFO queue of insertions; the concrete state must
     contain exactly the queue's blocks after every access. *)
  QCheck.Test.make ~name:"FIFO always evicts the oldest insertion" ~count:300
    QCheck.(pair (oneofl [ 2; 4 ]) (list_of_size (Gen.int_range 1 30) (int_range 0 9)))
    (fun (ways, trace) ->
       let s = Cache.Policy.init Cache.Policy.Fifo ~ways in
       let ok, _, _ =
         List.fold_left
           (fun (ok, s, queue) t ->
              let was_resident = Cache.Policy.resident s t in
              let _, s' = Cache.Policy.access s t in
              let queue =
                if was_resident then queue
                else begin
                  let grown = queue @ [ t ] in
                  if List.length grown > ways then
                    match grown with _ :: rest -> rest | [] -> []
                  else grown
                end
              in
              let matches =
                List.for_all (Cache.Policy.resident s') queue
                && List.length queue
                   = List.length
                     (List.filter (fun c -> c <> None) (Cache.Policy.contents s'))
              in
              (ok && matches, s', queue))
           (true, s, []) trace
       in
       ok)

let test_enumerate_full_states () =
  let blocks = [ 1; 2; 3 ] in
  let count kind ways =
    Seq.length (Cache.Policy.enumerate_full_states kind ~ways ~blocks)
  in
  Alcotest.(check int) "LRU 2-way from 3 blocks: 3P2" 6 (count Cache.Policy.Lru 2);
  Alcotest.(check int) "FIFO 2-way" 6 (count Cache.Policy.Fifo 2);
  Alcotest.(check int) "PLRU 2-way: 3P2 * 2 bits" 12 (count Cache.Policy.Plru 2);
  Alcotest.(check int) "MRU 2-way: 3P2 * 3 bit patterns" 18 (count Cache.Policy.Mru 2);
  Alcotest.(check int) "RR 2-way: 3P2 * 2 pointers" 12
    (count Cache.Policy.Round_robin 2)

(* --- Policy: behavioural equality ---------------------------------------- *)

let replay kind ~ways trace =
  snd (access_all (Cache.Policy.init kind ~ways) trace)

let hit_string state trace =
  let marks, _ =
    List.fold_left
      (fun (marks, s) tag ->
         let hit, s = Cache.Policy.access s tag in
         ((if hit then 'h' else 'm') :: marks, s))
      ([], state) trace
  in
  String.of_seq (List.to_seq (List.rev marks))

let check_equal name expected a b =
  Alcotest.(check bool) (name ^ ": structurally different") true
    (Cache.Policy.pack a <> Cache.Policy.pack b);
  Alcotest.(check bool) name expected (Cache.Policy.equal a b)

let test_equal_plru_mirror () =
  (* After [1;2;3;4] the (1,2) half is the left subtree and the root bit
     points at it; after [3;4;1;2;4] it is the right subtree and the root
     bit points at it: the same tree mirrored at the root. *)
  check_equal "mirrored PLRU trees" true
    (replay Cache.Policy.Plru ~ways:4 [ 1; 2; 3; 4 ])
    (replay Cache.Policy.Plru ~ways:4 [ 3; 4; 1; 2; 4 ])

let test_equal_rr_rotation () =
  (* Both rings evict 1, 2, 3, 4 in that order; the second is stored one
     slot rotated, with its pointer one slot on. *)
  check_equal "rotated RR rings" true
    (replay Cache.Policy.Round_robin ~ways:4 [ 1; 2; 3; 4 ])
    (replay Cache.Policy.Round_robin ~ways:4 [ 9; 1; 2; 3; 4 ])

let test_equal_lru_order () =
  check_equal "LRU recency orders differ" false
    (replay Cache.Policy.Lru ~ways:2 [ 1; 2 ])
    (replay Cache.Policy.Lru ~ways:2 [ 2; 1 ])

(* Every state reachable from the empty set over blocks 0 .. ways. *)
let reachable kind ~ways =
  let seen = Hashtbl.create 256 in
  let rec go acc = function
    | [] -> List.rev acc
    | s :: rest ->
      let next =
        List.filter_map
          (fun b ->
             let _, s' = Cache.Policy.access s b in
             let key = Cache.Policy.pack s' in
             if Hashtbl.mem seen key then None
             else begin
               Hashtbl.add seen key ();
               Some s'
             end)
          (List.init (ways + 1) Fun.id)
      in
      go (s :: acc) (rest @ next)
  in
  let s0 = Cache.Policy.init kind ~ways in
  Hashtbl.add seen (Cache.Policy.pack s0) ();
  Array.of_list (go [] [ s0 ])

let reachable_sets =
  List.concat_map
    (fun kind -> List.map (fun ways -> reachable kind ~ways) [ 2; 4 ])
    Cache.Policy.all_kinds
  |> Array.of_list

let prop_equal_is_behavioural =
  (* Accesses range over blocks 0..5: resident ones and fresh ones. *)
  QCheck.Test.make
    ~name:"equal states give identical hit/miss strings" ~count:200
    QCheck.(triple (int_bound (Array.length reachable_sets - 1)) (int_bound 10_000)
              (list_of_size (Gen.int_range 1 24) (int_range 0 5)))
    (fun (set, pick, trace) ->
       let states = reachable_sets.(set) in
       let a = states.(pick mod Array.length states) in
       Array.for_all
         (fun b ->
            (not (Cache.Policy.equal a b)) || hit_string a trace = hit_string b trace)
         states)

(* --- Set_assoc --------------------------------------------------------- *)

let small_config =
  { Cache.Set_assoc.sets = 2; ways = 2; line = 4; kind = Cache.Policy.Lru }

let test_set_assoc_mapping () =
  Alcotest.(check int) "block of addr" 3
    (Cache.Set_assoc.block_of_addr small_config 13);
  Alcotest.(check int) "set of addr" 1
    (Cache.Set_assoc.set_of_addr small_config 13);
  Alcotest.(check int) "same line, same block"
    (Cache.Set_assoc.block_of_addr small_config 12)
    (Cache.Set_assoc.block_of_addr small_config 15)

let test_set_assoc_line_hit () =
  let c = Cache.Set_assoc.make small_config in
  let miss_hit, c = Cache.Set_assoc.access c 12 in
  let line_hit, _ = Cache.Set_assoc.access c 15 in
  Alcotest.(check bool) "first access misses" false miss_hit;
  Alcotest.(check bool) "same line hits" true line_hit

let test_set_assoc_set_isolation () =
  (* Addresses in different sets never evict each other. *)
  let c = Cache.Set_assoc.make small_config in
  let _, c = Cache.Set_assoc.access c 0 in    (* set 0 *)
  let _, c = Cache.Set_assoc.access c 4 in    (* set 1 *)
  let _, c = Cache.Set_assoc.access c 12 in   (* set 1 *)
  let _, c = Cache.Set_assoc.access c 20 in   (* set 1: evicts within set 1 *)
  Alcotest.(check bool) "set-0 line untouched" true (Cache.Set_assoc.resident c 0)

let test_set_assoc_seq () =
  let c = Cache.Set_assoc.make small_config in
  let hits, misses, _ = Cache.Set_assoc.access_seq c [ 0; 0; 0; 4; 4 ] in
  Alcotest.(check int) "hits" 3 hits;
  Alcotest.(check int) "misses" 2 misses

let test_warmed_deterministic () =
  let universe = [ 0; 4; 8; 12; 16; 20 ] in
  let a = Cache.Set_assoc.warmed small_config ~seed:9 ~touches:20 ~universe in
  let b = Cache.Set_assoc.warmed small_config ~seed:9 ~touches:20 ~universe in
  Alcotest.(check bool) "same seed, same state" true (Cache.Set_assoc.equal a b)

let test_state_samples_cold_first () =
  let universe = [ 0; 4; 8 ] in
  let states =
    Cache.Set_assoc.state_samples small_config ~universe ~count:3 ~seed:1
  in
  Alcotest.(check int) "count+1 states" 4 (List.length states);
  match states with
  | first :: _ ->
    Alcotest.(check bool) "first is cold" true
      (Cache.Set_assoc.equal first (Cache.Set_assoc.make small_config))
  | [] -> Alcotest.fail "no states"

(* --- Scratchpad -------------------------------------------------------- *)

let test_scratchpad () =
  let spm = Cache.Scratchpad.make ~base:100 ~size:50 in
  Alcotest.(check bool) "contains base" true (Cache.Scratchpad.contains spm 100);
  Alcotest.(check bool) "contains last" true (Cache.Scratchpad.contains spm 149);
  Alcotest.(check bool) "excludes end" false (Cache.Scratchpad.contains spm 150);
  Alcotest.(check bool) "excludes below" false (Cache.Scratchpad.contains spm 99)

(* --- Method cache ------------------------------------------------------ *)

let mcache_config = { Cache.Method_cache.blocks = 4; block_size = 8 }

let test_method_cache_hit_miss () =
  let c = Cache.Method_cache.make mcache_config in
  let fit, c = Cache.Method_cache.request c ~name:"f" ~size:10 in
  Alcotest.(check bool) "first load misses" false fit.Cache.Method_cache.hit;
  Alcotest.(check int) "10 instrs = 2 blocks" 2 fit.Cache.Method_cache.loaded_blocks;
  let fit, c = Cache.Method_cache.request c ~name:"f" ~size:10 in
  Alcotest.(check bool) "resident method hits" true fit.Cache.Method_cache.hit;
  Alcotest.(check int) "occupancy" 2 (Cache.Method_cache.occupancy c)

let test_method_cache_fifo_eviction () =
  let c = Cache.Method_cache.make mcache_config in
  let _, c = Cache.Method_cache.request c ~name:"f" ~size:16 in  (* 2 blocks *)
  let _, c = Cache.Method_cache.request c ~name:"g" ~size:16 in  (* 2 blocks *)
  let fit, c = Cache.Method_cache.request c ~name:"h" ~size:8 in (* evicts f *)
  Alcotest.(check (list string)) "oldest method evicted" [ "f" ]
    fit.Cache.Method_cache.evicted;
  Alcotest.(check bool) "g kept" true (Cache.Method_cache.resident c "g");
  Alcotest.(check bool) "h loaded" true (Cache.Method_cache.resident c "h")

let test_method_cache_capacity () =
  let c = Cache.Method_cache.make mcache_config in
  Alcotest.(check bool) "oversized method rejected" true
    (try ignore (Cache.Method_cache.request c ~name:"huge" ~size:100); false
     with Invalid_argument _ -> true)

(* --- Split caches ------------------------------------------------------ *)

let test_split_routing () =
  let classify addr =
    if addr < 100 then Cache.Split.Heap
    else if addr < 200 then Cache.Split.Static
    else Cache.Split.Stack
  in
  let split =
    Cache.Split.make ~static_cfg:small_config ~stack_cfg:small_config
      ~heap_ways:2 ~heap_line:4
  in
  let _, split = Cache.Split.access split classify 150 in
  let hit_static, split = Cache.Split.access split classify 150 in
  Alcotest.(check bool) "static revisit hits" true hit_static;
  (* Heap traffic must not evict the static line. *)
  let split =
    List.fold_left
      (fun s addr -> snd (Cache.Split.access s classify addr))
      split [ 0; 8; 16; 24; 32; 40 ]
  in
  let hit_after_heap, _ = Cache.Split.access split classify 150 in
  Alcotest.(check bool) "heap traffic cannot evict static data" true hit_after_heap

(* --- Locking ----------------------------------------------------------- *)

let test_locking_greedy_respects_ways () =
  (* 8 hot blocks all mapping to set 0 of a 2-set/2-way cache: at most two
     can be locked. *)
  let profile = List.init 8 (fun i -> (i * 2, 100 - i)) in
  let locking = Cache.Locking.lock_greedy ~config:small_config ~profile in
  Alcotest.(check int) "per-set capacity respected" 2
    (List.length (Cache.Locking.locked_blocks locking))

let test_locking_picks_hottest () =
  let profile = [ (0, 5); (1, 100); (2, 1); (3, 99) ] in
  let locking = Cache.Locking.lock_greedy ~config:small_config ~profile in
  Alcotest.(check bool) "hottest locked" true (Cache.Locking.is_locked locking 1);
  Alcotest.(check bool) "second hottest locked" true (Cache.Locking.is_locked locking 3)

let test_locking_hits () =
  let profile = [ (0, 10); (1, 10) ] in
  let locking = Cache.Locking.lock_greedy ~config:small_config ~profile in
  Alcotest.(check int) "locked hits counted" 4
    (Cache.Locking.hits locking [ 0; 1; 0; 1; 2; 3 ])

let () =
  Alcotest.run "cache"
    [ ("lru",
       [ Alcotest.test_case "stack property" `Quick test_lru_stack_property;
         Alcotest.test_case "hit promotes" `Quick test_lru_hit_promotes ]);
      ("fifo",
       [ Alcotest.test_case "hit does not promote" `Quick
           test_fifo_hit_does_not_promote ]);
      ("plru",
       [ Alcotest.test_case "fills invalid ways first" `Quick
           test_plru_fills_invalid_first;
         Alcotest.test_case "geometry restriction" `Quick test_plru_geometry;
         Alcotest.test_case "2-way PLRU = LRU" `Quick test_plru_ways2_is_lru ]);
      ("mru+rr",
       [ Alcotest.test_case "MRU basics" `Quick test_mru_basic;
         Alcotest.test_case "RR pointer rotation" `Quick test_rr_pointer_rotation ]);
      ("policy properties",
       [ QCheck_alcotest.to_alcotest prop_access_inserts;
         QCheck_alcotest.to_alcotest prop_contents_bounded;
         QCheck_alcotest.to_alcotest prop_hit_iff_resident;
         QCheck_alcotest.to_alcotest prop_mra_block_survives_next_access;
         QCheck_alcotest.to_alcotest prop_lru_contents_are_recency_order;
         QCheck_alcotest.to_alcotest prop_fifo_eviction_is_insertion_order;
         Alcotest.test_case "state enumeration sizes" `Quick
           test_enumerate_full_states ]);
      ("policy equality",
       [ QCheck_alcotest.to_alcotest prop_equal_is_behavioural;
         Alcotest.test_case "mirrored PLRU trees are equal" `Quick
           test_equal_plru_mirror;
         Alcotest.test_case "rotated RR rings are equal" `Quick
           test_equal_rr_rotation;
         Alcotest.test_case "LRU recency orders are unequal" `Quick
           test_equal_lru_order ]);
      ("set_assoc",
       [ Alcotest.test_case "address mapping" `Quick test_set_assoc_mapping;
         Alcotest.test_case "line granularity" `Quick test_set_assoc_line_hit;
         Alcotest.test_case "set isolation" `Quick test_set_assoc_set_isolation;
         Alcotest.test_case "access_seq counting" `Quick test_set_assoc_seq;
         Alcotest.test_case "warmed determinism" `Quick test_warmed_deterministic;
         Alcotest.test_case "state samples" `Quick test_state_samples_cold_first ]);
      ("scratchpad", [ Alcotest.test_case "bounds" `Quick test_scratchpad ]);
      ("method_cache",
       [ Alcotest.test_case "hit/miss and block sizing" `Quick
           test_method_cache_hit_miss;
         Alcotest.test_case "FIFO eviction of whole methods" `Quick
           test_method_cache_fifo_eviction;
         Alcotest.test_case "capacity check" `Quick test_method_cache_capacity ]);
      ("split",
       [ Alcotest.test_case "routing and isolation" `Quick test_split_routing ]);
      ("locking",
       [ Alcotest.test_case "per-set capacity" `Quick
           test_locking_greedy_respects_ways;
         Alcotest.test_case "hottest blocks first" `Quick test_locking_picks_hottest;
         Alcotest.test_case "hit counting" `Quick test_locking_hits ]) ]
