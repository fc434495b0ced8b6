(* RW.CACHE — Reineke et al., cache replacement policy metrics: evict and
   fill horizons computed by exhaustive state-space exploration. LRU attains
   the minimum (evict = fill = associativity); FIFO, PLRU and MRU need
   longer access sequences from 4 ways on (at 2 ways PLRU and MRU coincide
   with LRU), which caps the precision of any analysis for those policies.
   Round-robin on a full set is FIFO up to a rotation of its ring, so its
   horizons are FIFO's. *)

let policies =
  [ Cache.Policy.Lru; Cache.Policy.Fifo; Cache.Policy.Plru; Cache.Policy.Mru;
    Cache.Policy.Round_robin ]

let run () =
  let table =
    Prelude.Table.make
      ~header:[ "policy"; "ways"; "evict"; "fill" ]
  in
  let results = ref [] in
  List.iter
    (fun ways ->
       List.iter
         (fun kind ->
            let max_probes = (3 * ways) + 2 in
            let evict = Cache_metrics.evict kind ~ways ~max_probes in
            let fill = Cache_metrics.fill kind ~ways ~max_probes in
            results := ((kind, ways), (evict, fill)) :: !results;
            Prelude.Table.add_row table
              [ Cache.Policy.kind_name kind; string_of_int ways;
                Cache_metrics.estimate_to_string evict;
                Cache_metrics.estimate_to_string fill ])
         policies;
       Prelude.Table.add_separator table)
    [ 2; 4 ];
  let lookup kind ways = List.assoc (kind, ways) !results in
  let evict kind ways = fst (lookup kind ways) in
  let fill kind ways = snd (lookup kind ways) in
  let exact n = Cache_metrics.Exact n in
  let both ok = ok 2 && ok 4 in
  (* Beyond the probe budget ranks above every exact value. *)
  let rank = function Cache_metrics.Exact n -> n | Cache_metrics.Beyond n -> n + 1 in
  let rec log2 k = if k <= 1 then 0 else 1 + log2 (k / 2) in
  let lru_minimal k =
    match evict Cache.Policy.Lru k with
    | Cache_metrics.Exact le ->
      List.for_all (fun kind -> rank (evict kind k) >= le) policies
    | Cache_metrics.Beyond _ -> false
  in
  { Report.id = "RW.CACHE";
    title = "Cache replacement policy metrics: evict/fill by state exploration";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "LRU attains evict = fill = ways (k=2 and k=4)"
          (both (fun k -> lookup Cache.Policy.Lru k = (exact k, exact k)));
        Report.check "FIFO needs 2k-1 distinct accesses to evict (k=2 and k=4)"
          (both (fun k -> evict Cache.Policy.Fifo k = exact ((2 * k) - 1)));
        Report.check "LRU has the smallest evict horizon of all policies"
          (both lru_minimal);
        Report.check "PLRU fill is k/2*log2(k) + k - 1 (k=2 and k=4)"
          (both (fun k -> fill Cache.Policy.Plru k = exact ((k / 2 * log2 k) + k - 1)));
        Report.check "FIFO needs 3k-1 distinct accesses to fill (k=2 and k=4)"
          (both (fun k -> fill Cache.Policy.Fifo k = exact ((3 * k) - 1)));
        Report.check "RR evict/fill equal FIFO's (k=2 and k=4)"
          (both (fun k -> lookup Cache.Policy.Round_robin k = lookup Cache.Policy.Fifo k));
        Report.check "2-way PLRU and MRU match LRU: evict = fill = 2"
          (List.for_all
             (fun kind -> lookup kind 2 = (exact 2, exact 2))
             [ Cache.Policy.Plru; Cache.Policy.Mru ]) ] }
