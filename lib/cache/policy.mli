(** Replacement policies of one cache set, as persistent state machines.

    Persistence matters: the predictability quantifications (Defs. 3-5) and
    the evict/fill metrics of Reineke et al. explore the space of reachable
    set states, which needs cheap state copies. *)

type kind = Lru | Fifo | Plru | Mru | Round_robin

val all_kinds : kind list
val kind_name : kind -> string
val kind_ordinal : kind -> int
(** Stable small integer per kind, for packed encodings. *)

type state

val init : kind -> ways:int -> state
(** Empty set. [Plru] requires [ways] in {1, 2, 4, 8}.
    @raise Invalid_argument on unsupported geometry. *)

val ways : state -> int
val kind : state -> kind

val access : state -> int -> bool * state
(** [access s tag] is [(hit, s')]. On a miss the victim chosen by the policy
    is replaced by [tag]. *)

val resident : state -> int -> bool
val contents : state -> int option list
(** Current tags in policy-specific order, padded with [None]. *)

val equal : state -> state -> bool
(** Behavioural equality: same kind and geometry, and the same hit/miss
    answer to every access sequence (hence the same resident set). States
    that differ only in how they record it — mirrored PLRU trees, rotated
    round-robin rings — are equal. Decided by a product search over state
    pairs with blocks renamed jointly, so it costs more than [(=)]. *)

val pp : Format.formatter -> state -> unit

val pack : state -> int list
(** Integer encoding of the complete state: kind ordinal, ways,
    slot tags in policy order ([-1] for empty), then policy metadata (PLRU
    bits pre-order, MRU bits, RR victim pointer). Structural and injective
    on states: [pack a = pack b] implies [equal a b]. The fast-path engine
    uses it both as a memo-key component and to seed bit-packed replay
    arrays. *)

val packed_step :
  kind -> slots:int array -> base:int -> ways:int ->
  meta:int array -> mbase:int -> int -> bool
(** In-place access on one set stored as a packed slots segment
    ([slots.(base .. base+ways-1)] in policy order, -1 = empty; [meta.(mbase)]
    is the RR victim pointer, unused otherwise). Produces exactly {!access}'s
    hit/miss and successor state for non-negative tags.
    @raise Invalid_argument for kinds without a packed layout. *)

val enumerate_full_states : kind -> ways:int -> blocks:int list -> state Seq.t
(** Every representable state whose ways are all valid and filled with
    pairwise-distinct blocks drawn from [blocks] (contents, order, and
    policy metadata — FIFO order, PLRU bits, MRU bits, RR pointer — all
    enumerated). This is the "completely unknown initial state" space used
    by the evict/fill metrics of Reineke et al. Sizes grow as
    [|blocks| P ways * policy-bits]; the sequence is lazy, so a consumer
    that stops early never builds the rest.
    @raise Invalid_argument at once on unsupported geometry. *)
