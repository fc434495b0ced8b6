(** Replacement-policy predictability metrics (Reineke et al., "Timing
    predictability of cache replacement policies", cited as the related work
    [20] that defines inherent metrics for one component class).

    Starting from a completely unknown full cache set, an analysis regains
    information by observing a sequence of accesses to pairwise-distinct
    blocks. Two horizons measure how fast uncertainty can be removed:

    - [evict]: the minimal number of distinct-block accesses after which
      {e no} unknown original block can still be cached (may-information
      complete);
    - [fill]: the minimal number after which the entire cache state is a
      function of the accessed blocks alone (must-information complete, the
      state is unique).

    Both are computed here by exhaustive exploration of the policy's state
    space — they are inherent properties, independent of any analysis. The
    fill test compares final states with the behavioural {!Cache.Policy.equal}:
    two states that answer every access alike count as the same state.
    Published values (ibid.): LRU achieves the minimum ([evict = fill = k]);
    FIFO needs [2k-1] / [3k-1], PLRU [k/2 log2 k + 1] / [k/2 log2 k + k - 1],
    MRU [2k-2] / unbounded, bounding the precision of {e any} cache analysis
    for those policies. *)

type estimate =
  | Exact of int
  | Beyond of int  (** exceeds the probe budget: at least this many *)

val estimate_to_string : estimate -> string

val evict :
  ?engine:Quantify.engine ->
  Cache.Policy.kind -> ways:int -> max_probes:int -> estimate
(** The exploration is sequential and stops a depth at its first
    counterexample; a depth that holds sweeps every initial state. Evals
    count the accesses actually stepped. [engine] is accepted for callers
    that pass one and ignored: there is one explorer.
    @raise Invalid_argument on geometries the policy cannot represent. *)

val fill :
  ?engine:Quantify.engine ->
  Cache.Policy.kind -> ways:int -> max_probes:int -> estimate
