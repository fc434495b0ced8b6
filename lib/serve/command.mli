(** The command core shared by the one-shot CLI ([predlab OP]) and the
    daemon ([predlab query OP]): workload selection, the result-document
    builders of the [run]/[sample]/[lint]/[certify]/[compare] ops, the
    pretty rendering of a result document, and the exit class of a
    reply. Both front ends call these functions and nothing else, so
    [predlab OP --format json] and [predlab query OP] print the same
    bytes and exit with the same code by construction.

    Exit classes (the documented taxonomy of every [predlab] command):
    - [0] success;
    - [1] the command completed but its verdict failed: a reproduction
      check, an error-severity lint finding, a contradicted certificate
      expectation, a sampled CI missing its exhaustive value, or a
      failed regression gate;
    - [2] usage or input error: unknown workload, experiment or op, an
      out-of-range [eval] index, an oversized request frame, a malformed
      file or flag, or no daemon to connect to;
    - [3] supervision failure: an experiment crashed or timed out, a
      request overran its deadline, or [query --timeout] expired;
    - [4] a chaos campaign found a violation;
    - [5] the daemon shed the connection (overloaded). *)

type workloads = (string * (unit -> Isa.Workload.t)) list

val select : ?only:string -> string list -> (workloads, string) result
(** Registry entries for [names] in the given order ([[]] = the whole
    registry), then kept to those whose name contains [only]. [Error]
    names an unknown workload, or an [only] that matches nothing. *)

(** {2 Document builders}

    Each returns the rows the CLI renders as text together with the
    result document; [Error] is a rejected request (exit class 2).
    Optional arguments the wire protocol does not carry are the CLI's
    own flags. *)

val run :
  jobs:int -> ?deadline_s:float -> ?retries:int -> ?journal:string ->
  ?resume:bool -> string list ->
  (Predictability.Experiments.supervised list * Prelude.Json.t, string)
  result
(** Run experiments [ids] ([[]] = the whole registry) under the
    supervisor, [deadline_s] and [retries] per attempt; the document is
    the v2 [predlab/report]. *)

val sample :
  jobs:int -> ?check:bool -> ?seed:int -> ?samples:int ->
  ?confidence:float -> string list ->
  (Predictability.Sampled.row list * Prelude.Json.t, string) result
(** Seeded sampling estimators over the selected workloads; an omitted
    spec field takes {!Sampling.Sampler.default}'s value. [check] adds
    the exhaustive cross-check and its containment verdicts. *)

val lint :
  ?fixture:[ `Clean | `Dirty ] -> ?only:string -> string list ->
  ((string * Dataflow.Lint.finding list) list * Prelude.Json.t, string)
  result
(** The dataflow linter over the selected workloads, or over one pinned
    fixture instead. *)

val certify :
  ?fixture:[ `Leakfree | `Leaky ] -> ?require_invariant:bool ->
  ?only:string -> string list ->
  (Predictability.Certifier.row list * Prelude.Json.t, string) result
(** Certificates over the selected workloads, each declared [Invariant]
    under [require_invariant], or over one pinned fixture (both declare
    [Invariant]; the leaky one contradicts it). *)

val compare :
  ?tolerance:float -> baseline:Prelude.Json.t -> current:Prelude.Json.t ->
  unit ->
  (Predictability.Regression.finding list * Prelude.Json.t, string) result
(** The regression gate over two report documents ([tolerance] in
    percent, default the gate's 50); the document is
    [predlab/serve-compare]. *)

(** {2 Replies} *)

val reply : op:string -> ('rows * Prelude.Json.t, string) result -> Prelude.Json.t
(** The daemon's response envelope for a builder's outcome. *)

val render : op:string -> Prelude.Json.t -> string
(** The pretty-printed result document as both front ends print it; the
    [sample], [lint] and [certify] documents end in a blank line. *)

val exit_class : Prelude.Json.t -> int
(** The exit class of a reply envelope. A success envelope is judged by
    the verdict its result document carries for its op: [crashed] or
    [timed_out] (run, 3), [experiments_passed] below
    [experiments_total] (run, 1), [errors] (lint, 1), [contradictions]
    (certify, 1), a false [contained] verdict (sample, 1) and [passed]
    (compare, 1). An error envelope is judged by its [status]:
    [timed_out] 3, [overloaded] 5, anything else 2. *)
