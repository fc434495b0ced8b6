type estimate =
  | Exact of int
  | Beyond of int

let estimate_to_string = function
  | Exact n -> string_of_int n
  | Beyond n -> Printf.sprintf ">%d" n

(* Old (unknown) blocks are negative ids, probes positive: by renaming
   symmetry, [ways] distinct unknown blocks cover every initial content mix,
   and initial states may already contain some of the probe blocks — the
   case that makes FIFO need 2k-1 probes rather than k.

   Depth [j] holds when every initial state, pushed through probes 1..j,
   ends with no old block resident and, for [fill], behaviourally equal to
   the first final. The sweep stops at the first final that fails, so only
   a depth that holds visits every initial state. Finals are deduplicated
   structurally before the costlier [Policy.equal]. One eval is one access
   stepped by the sweep. *)
let explore ~fill ~ways ~max_probes kind =
  let olds = List.init ways (fun i -> -(i + 1)) in
  let holds j =
    let probes = List.init j (fun i -> i + 1) in
    let first = ref None in
    let known = Hashtbl.create 64 in
    let final_ok s =
      (not (List.exists (Cache.Policy.resident s) olds))
      && ((not fill) || Hashtbl.mem known s
          || begin
            Hashtbl.add known s ();
            match !first with
            | None -> first := Some s; true
            | Some f -> Cache.Policy.equal f s
          end)
    in
    let stepped = ref 0 in
    let ok =
      Seq.for_all
        (fun s ->
           stepped := !stepped + j;
           final_ok
             (List.fold_left (fun s p -> snd (Cache.Policy.access s p)) s probes))
        (Cache.Policy.enumerate_full_states kind ~ways ~blocks:(olds @ probes))
    in
    Prelude.Instrument.add_evals !stepped;
    ok
  in
  let rec try_probes j =
    if j > max_probes then Beyond max_probes
    else if holds j then Exact j
    else try_probes (j + 1)
  in
  try_probes 1

let evict ?engine:_ kind ~ways ~max_probes =
  explore ~fill:false ~ways ~max_probes kind

let fill ?engine:_ kind ~ways ~max_probes =
  explore ~fill:true ~ways ~max_probes kind
