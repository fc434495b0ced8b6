type kind = Lru | Fifo | Plru | Mru | Round_robin

let all_kinds = [ Lru; Fifo; Plru; Mru; Round_robin ]

let kind_name = function
  | Lru -> "LRU"
  | Fifo -> "FIFO"
  | Plru -> "PLRU"
  | Mru -> "MRU"
  | Round_robin -> "RR"

(* PLRU tree: a node's bit points to the subtree holding the next victim. *)
type tree =
  | Leaf of int option
  | Node of bool * tree * tree

type state =
  | Slru of int * int list          (* ways, tags MRU-first *)
  | Sfifo of int * int list         (* ways, tags newest-first *)
  | Splru of tree
  | Smru of (int option * bool) list  (* ways in physical order, MRU-bit *)
  | Srr of int option list * int    (* ways in physical order, next victim *)

let rec build_tree ways =
  if ways = 1 then Leaf None
  else Node (false, build_tree (ways / 2), build_tree (ways / 2))

let init kind ~ways =
  if ways < 1 then invalid_arg "Policy.init: ways must be >= 1";
  match kind with
  | Lru -> Slru (ways, [])
  | Fifo -> Sfifo (ways, [])
  | Plru ->
    if ways land (ways - 1) <> 0 || ways > 8 then
      invalid_arg "Policy.init: PLRU requires ways in {1,2,4,8}"
    else Splru (build_tree ways)
  | Mru -> Smru (List.init ways (fun _ -> (None, false)))
  | Round_robin -> Srr (List.init ways (fun _ -> None), 0)

let rec tree_ways = function
  | Leaf _ -> 1
  | Node (_, left, right) -> tree_ways left + tree_ways right

let ways = function
  | Slru (w, _) | Sfifo (w, _) -> w
  | Splru t -> tree_ways t
  | Smru ws -> List.length ws
  | Srr (ws, _) -> List.length ws

let kind = function
  | Slru _ -> Lru
  | Sfifo _ -> Fifo
  | Splru _ -> Plru
  | Smru _ -> Mru
  | Srr _ -> Round_robin

let rec tree_resident tag = function
  | Leaf (Some t) -> t = tag
  | Leaf None -> false
  | Node (_, left, right) -> tree_resident tag left || tree_resident tag right

(* Touch [tag] (known resident): flip bits along its path to point away. *)
let rec tree_touch tag = function
  | Leaf _ as leaf -> leaf
  | Node (bit, left, right) ->
    if tree_resident tag left then Node (true, tree_touch tag left, right)
    else if tree_resident tag right then Node (false, left, tree_touch tag right)
    else Node (bit, left, right)

let rec tree_has_empty = function
  | Leaf None -> true
  | Leaf (Some _) -> false
  | Node (_, left, right) -> tree_has_empty left || tree_has_empty right

(* Fill the leftmost empty leaf with [tag], flipping bits away from it. *)
let rec tree_fill tag = function
  | Leaf None -> Leaf (Some tag)
  | Leaf (Some _) as leaf -> leaf
  | Node (bit, left, right) ->
    if tree_has_empty left then Node (true, tree_fill tag left, right)
    else if tree_has_empty right then Node (false, left, tree_fill tag right)
    else Node (bit, left, right)

(* Replace the victim designated by the bits, flipping bits away from it. *)
let rec tree_evict tag = function
  | Leaf _ -> Leaf (Some tag)
  | Node (bit, left, right) ->
    if bit then Node (false, left, tree_evict tag right)
    else Node (true, tree_evict tag left, right)

(* [holds tag way]: [way] holds [tag]. An int comparison, unlike
   [way = Some tag] or [List.mem], which call the polymorphic compare. *)
let holds tag = function Some t -> t = tag | None -> false

let access state tag =
  match state with
  | Slru (w, tags) ->
    let hit = List.exists (Int.equal tag) tags in
    let rest = List.filter (fun t -> t <> tag) tags in
    let tags' = tag :: Prelude.Listx.take (w - 1) rest in
    (hit, Slru (w, tags'))
  | Sfifo (w, tags) ->
    if List.exists (Int.equal tag) tags then (true, state)
    else (false, Sfifo (w, tag :: Prelude.Listx.take (w - 1) tags))
  | Splru tree ->
    if tree_resident tag tree then (true, Splru (tree_touch tag tree))
    else if tree_has_empty tree then (false, Splru (tree_fill tag tree))
    else (false, Splru (tree_evict tag tree))
  | Smru ways_list ->
    let hit = List.exists (fun (t, _) -> holds tag t) ways_list in
    if hit then begin
      let set_bit = List.map (fun (t, b) -> (t, b || holds tag t)) ways_list in
      (* If every bit is now set, clear all but the just-accessed way. *)
      let all_set = List.for_all snd set_bit in
      let final =
        if all_set then List.map (fun (t, _) -> (t, holds tag t)) set_bit
        else set_bit
      in
      (true, Smru final)
    end
    else begin
      (* Victim: first invalid way, else first way with MRU-bit 0. *)
      let rec place seen = function
        | [] ->
          (* All bits set and no invalid way cannot happen: bits are cleared
             when the last zero bit would be set. Fall back to replacing the
             first way. *)
          (match List.rev seen with
           | [] -> [ (Some tag, true) ]
           | _ :: rest -> (Some tag, true) :: rest)
        | (None, _) :: rest -> List.rev_append seen ((Some tag, true) :: rest)
        | (Some _, false) :: rest ->
          List.rev_append seen ((Some tag, true) :: rest)
        | ((Some _, true) as w) :: rest -> place (w :: seen) rest
      in
      let placed = place [] ways_list in
      let all_set = List.for_all snd placed in
      let final =
        if all_set then List.map (fun (t, _) -> (t, holds tag t)) placed
        else placed
      in
      (false, Smru final)
    end
  | Srr (ways_list, next) ->
    if List.exists (holds tag) ways_list then (true, state)
    else begin
      (* Prefer an invalid way; otherwise replace at the pointer. *)
      let rec first_invalid i = function
        | [] -> None
        | None :: _ -> Some i
        | Some _ :: rest -> first_invalid (i + 1) rest
      in
      let slot, next' =
        match first_invalid 0 ways_list with
        | Some i -> (i, next)
        | None -> (next, (next + 1) mod List.length ways_list)
      in
      let ways' = List.mapi (fun i t -> if i = slot then Some tag else t) ways_list in
      (false, Srr (ways', next'))
    end

let resident state tag =
  match state with
  | Slru (_, tags) | Sfifo (_, tags) -> List.exists (Int.equal tag) tags
  | Splru tree -> tree_resident tag tree
  | Smru ways_list -> List.exists (fun (t, _) -> holds tag t) ways_list
  | Srr (ways_list, _) -> List.exists (holds tag) ways_list

let rec tree_contents = function
  | Leaf t -> [ t ]
  | Node (_, left, right) -> tree_contents left @ tree_contents right

let contents state =
  match state with
  | Slru (w, tags) | Sfifo (w, tags) ->
    List.map (fun t -> Some t) tags
    @ List.init (w - List.length tags) (fun _ -> None)
  | Splru tree -> tree_contents tree
  | Smru ways_list -> List.map fst ways_list
  | Srr (ways_list, _) -> ways_list

let map_tags f = function
  | Slru (w, tags) -> Slru (w, List.map f tags)
  | Sfifo (w, tags) -> Sfifo (w, List.map f tags)
  | Splru tree ->
    let rec go = function
      | Leaf t -> Leaf (Option.map f t)
      | Node (bit, left, right) -> Node (bit, go left, go right)
    in
    Splru (go tree)
  | Smru ways_list -> Smru (List.map (fun (t, b) -> (Option.map f t, b)) ways_list)
  | Srr (ways_list, next) -> Srr (List.map (Option.map f) ways_list, next)

let resident_set state =
  List.sort_uniq Int.compare (List.filter_map Fun.id (contents state))

(* Rename the tags of a pair jointly to 0, 1, ... in order of first
   appearance in [a]'s then [b]'s contents. No policy can observe a renaming
   of blocks, so pairs that differ by one share a representative and the
   product search of [equal] ranges over a finite set. *)
let canonical (a, b) =
  let names = ref [] in
  List.iter
    (Option.iter (fun t ->
         if not (List.mem_assoc t !names) then
           names := (t, List.length !names) :: !names))
    (contents a @ contents b);
  let name t = List.assoc t !names in
  (map_tags name a, map_tags name b)

module Pairs = Hashtbl.Make (struct
    type t = state * state
    let equal = ( = )
    let hash = Hashtbl.hash_param 64 256
  end)

(* Behavioural equality. One access hits iff its block is resident, so [a]
   and [b] answer every access sequence alike iff every pair reachable from
   (a, b) has equal resident sets. Successors are taken on every resident
   block plus one fresh block: all non-resident blocks lead to the same
   pair up to renaming. Structurally equal pairs need no further search. *)
let equal a b =
  a = b
  || kind a = kind b && ways a = ways b
     && begin
       let seen = Pairs.create 64 in
       let rec explore = function
         | [] -> true
         | (a, b) :: rest ->
           let blocks = resident_set a in
           (* Canonical tags are 0 .. |blocks| - 1: |blocks| is fresh. *)
           blocks = resident_set b
           && explore
             (List.fold_left
                (fun rest tag ->
                   let pair = canonical (snd (access a tag), snd (access b tag)) in
                   if fst pair = snd pair || Pairs.mem seen pair then rest
                   else begin
                     Pairs.add seen pair ();
                     pair :: rest
                   end)
                rest (List.length blocks :: blocks))
       in
       explore [ canonical (a, b) ]
     end

let kind_ordinal = function
  | Lru -> 0
  | Fifo -> 1
  | Plru -> 2
  | Mru -> 3
  | Round_robin -> 4

(* Structural integer encoding of the complete state: kind, geometry, slot
   contents in policy order, and the policy metadata that [contents] alone
   does not carry (MRU bits, PLRU bits, RR pointer). Injective on states,
   so it can serve both as a memo-table key component and as the source for
   the fast path's bit-packed replay arrays. Empty slots encode as -1. *)
let pack state =
  let slot = function None -> -1 | Some t -> t in
  let slots = List.map slot (contents state) in
  let meta =
    match state with
    | Slru _ | Sfifo _ -> []
    | Splru tree ->
      let rec bits = function
        | Leaf _ -> []
        | Node (b, left, right) -> (if b then 1 else 0) :: (bits left @ bits right)
      in
      bits tree
    | Smru ways_list -> List.map (fun (_, b) -> if b then 1 else 0) ways_list
    | Srr (_, next) -> [ next ]
  in
  (kind_ordinal (kind state) :: ways state :: slots) @ meta

(* In-place single-set access on a packed slots segment laid out as [pack]'s
   slot section: [slots.(base .. base + ways - 1)] holds tags in policy order
   (LRU MRU-first, FIFO newest-first, RR physical), -1 marking empty slots;
   [meta.(mbase)] is the RR victim pointer. Tags must be non-negative.
   Mirrors [access] exactly for the supported kinds — pinned by the test
   suite; empty (-1) slots sit at the list tail for LRU/FIFO, so a plain
   shift reproduces the list semantics on non-full sets. *)
let packed_step kind ~slots ~base ~ways ~meta ~mbase tag =
  let pos = ref (-1) in
  (try
     for k = 0 to ways - 1 do
       if slots.(base + k) = tag then begin
         pos := k;
         raise Exit
       end
     done
   with Exit -> ());
  match kind with
  | Lru ->
    (* Hit: rotate the prefix up to the tag's slot; miss: rotate the whole
       set, dropping the LRU tail. *)
    let upto = if !pos >= 0 then !pos else ways - 1 in
    for k = upto downto 1 do
      slots.(base + k) <- slots.(base + k - 1)
    done;
    slots.(base) <- tag;
    !pos >= 0
  | Fifo ->
    if !pos >= 0 then true
    else begin
      for k = ways - 1 downto 1 do
        slots.(base + k) <- slots.(base + k - 1)
      done;
      slots.(base) <- tag;
      false
    end
  | Round_robin ->
    if !pos >= 0 then true
    else begin
      let invalid = ref (-1) in
      for k = ways - 1 downto 0 do
        if slots.(base + k) = -1 then invalid := k
      done;
      if !invalid >= 0 then slots.(base + !invalid) <- tag
      else begin
        slots.(base + meta.(mbase)) <- tag;
        meta.(mbase) <- (meta.(mbase) + 1) mod ways
      end;
      false
    end
  | Plru | Mru -> invalid_arg "Policy.packed_step: kind has no packed layout"

(* All ways-length sequences of pairwise-distinct blocks, lazily. *)
let rec arrangements ways blocks =
  if ways = 0 then Seq.return []
  else
    Seq.flat_map
      (fun b ->
         let rest = List.filter (fun x -> x <> b) blocks in
         Seq.map (fun tail -> b :: tail) (arrangements (ways - 1) rest))
      (List.to_seq blocks)

let rec bit_patterns n =
  if n = 0 then [ [] ]
  else
    List.concat_map
      (fun tail -> [ false :: tail; true :: tail ])
      (bit_patterns (n - 1))

(* Rebuild a PLRU tree from leaf contents and an explicit bit assignment
   (pre-order over internal nodes). *)
let tree_of ways contents bits =
  let rec build contents bits ways =
    if ways = 1 then begin
      match contents with
      | [ c ] -> (Leaf (Some c), bits)
      | _ -> assert false
    end
    else begin
      match bits with
      | [] -> assert false
      | bit :: bits ->
        let half = ways / 2 in
        let rec split k xs =
          if k = 0 then ([], xs)
          else match xs with
            | [] -> assert false
            | x :: rest -> let l, r = split (k - 1) rest in (x :: l, r)
        in
        let left_contents, right_contents = split half contents in
        let left, bits = build left_contents bits half in
        let right, bits = build right_contents bits half in
        (Node (bit, left, right), bits)
    end
  in
  let tree, leftover = build contents bits ways in
  assert (leftover = []);
  tree

let enumerate_full_states kind ~ways ~blocks =
  if ways < 1 then invalid_arg "Policy.enumerate_full_states: ways must be >= 1";
  let fills = arrangements ways blocks in
  (* Every filling, paired with every metadata value in [metas]. *)
  let each metas build =
    Seq.flat_map (fun contents -> Seq.map (build contents) (List.to_seq metas))
      fills
  in
  match kind with
  | Lru -> Seq.map (fun tags -> Slru (ways, tags)) fills
  | Fifo -> Seq.map (fun tags -> Sfifo (ways, tags)) fills
  | Plru ->
    if ways land (ways - 1) <> 0 || ways > 8 then
      invalid_arg "Policy.enumerate_full_states: PLRU requires ways in {1,2,4,8}";
    each (bit_patterns (ways - 1)) (fun contents bits ->
        Splru (tree_of ways contents bits))
  | Mru ->
    (* The all-ones bit pattern is transient (it is normalised away on the
       access that would create it), so exclude it. *)
    let patterns = List.filter (List.exists not) (bit_patterns ways) in
    each patterns (fun contents bits ->
        Smru (List.map2 (fun c b -> (Some c, b)) contents bits))
  | Round_robin ->
    each (List.init ways Fun.id) (fun contents p ->
        Srr (List.map Option.some contents, p))

let pp ppf state =
  let pp_slot ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some t -> Format.pp_print_int ppf t
  in
  Format.fprintf ppf "%s[%a]" (kind_name (kind state))
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       pp_slot)
    (contents state)
