(* Fork-join data parallelism: each call spawns up to [jobs - 1] domains,
   which claim slices of the index range from one atomic counter alongside
   the calling domain, and joins them before it returns. Predictability
   experiments are batch jobs, so keeping idle domains alive between calls
   would only complicate process exit. *)

let process_default = Atomic.make 0 (* 0 = fall back to the runtime's advice *)

let recommended_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let set_default_jobs n =
  if n < 1 then invalid_arg "Parallel.set_default_jobs: jobs must be >= 1";
  Atomic.set process_default n

let default_jobs () =
  match Atomic.get process_default with
  | 0 -> recommended_jobs ()
  | n -> n

let resolve_jobs = function
  | None -> default_jobs ()
  | Some n when n < 1 -> invalid_arg "Parallel: jobs must be >= 1"
  | Some n -> n

(* True on any domain while it runs slices of a parallel call, the caller
   included. A task there already owns one slot of the width the caller
   asked for, so any Parallel call it makes runs sequentially in place
   instead of spawning nested domains: live domains stay bounded by [jobs]
   no matter how deeply the hot paths nest (run_all -> exp_atlas ->
   Quantify.evaluate), well clear of the OCaml runtime's total-domain cap,
   and cores are never oversubscribed. *)
let on_worker = Domain.DLS.new_key (fun () -> false)

(* --- Cooperative deadlines --------------------------------------------- *)

exception Deadline_exceeded of { elapsed_s : float; deadline_s : float }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed_s; deadline_s } ->
      Some
        (Printf.sprintf "Parallel.Deadline_exceeded(%.3fs > %.3fs)" elapsed_s
           deadline_s)
    | _ -> None)

(* (start time, budget) of the innermost deadlined task running on this
   domain, if any. Purely cooperative: OCaml domains cannot be preempted,
   so overruns are detected at checkpoints ([check_deadline], which the
   sequential loop of [run_tasks] hits between elements) and post-hoc
   when a task returns. *)
let task_deadline = Domain.DLS.new_key (fun () -> None)

let check_deadline () =
  match Domain.DLS.get task_deadline with
  | None -> ()
  | Some (started, deadline_s) ->
    let elapsed_s = Instrument.now () -. started in
    if elapsed_s > deadline_s then
      raise (Deadline_exceeded { elapsed_s; deadline_s })

let with_deadline ~deadline_s f =
  if deadline_s <= 0. then
    invalid_arg "Parallel.with_deadline: deadline must be > 0";
  let started = Instrument.now () in
  let saved = Domain.DLS.get task_deadline in
  Domain.DLS.set task_deadline (Some (started, deadline_s));
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set task_deadline saved)
    (fun () ->
       let v = f () in
       let elapsed_s = Instrument.now () -. started in
       if elapsed_s > deadline_s then
         raise (Deadline_exceeded { elapsed_s; deadline_s });
       v)

(* Failures are parked here, never raised out of a domain, and re-raised
   in the caller once every domain has been joined. *)
type failure = { exn : exn; backtrace : Printexc.raw_backtrace }

exception Multiple_failures of { count : int; first : exn }

let () =
  Printexc.register_printer (function
    | Multiple_failures { count; first } ->
      Some
        (Printf.sprintf "Parallel.Multiple_failures(%d tasks; first: %s)"
           count (Printexc.to_string first))
    | _ -> None)

let credit (c : Instrument.counts) =
  Instrument.add_evals c.evals;
  Instrument.add_cells c.cells;
  Instrument.add_memo_hits c.memo_hits;
  Instrument.add_memo_misses c.memo_misses

(* Execute [body i] for all [0 <= i < count]. Indices are grouped into
   contiguous slices (a few per domain, so cheap bodies don't pay an atomic
   round-trip per element while load imbalance still smooths out). The
   calling domain and up to [jobs - 1] spawned ones claim slices from one
   atomic counter until none is left. Every failure that occurs is
   collected (new work stops being started after the first); a single
   failure re-raises transparently, several raise [Multiple_failures]
   carrying the count and the earliest-recorded exception. *)
let run_tasks ~jobs ~count body =
  if jobs <= 1 || count <= 1 || Domain.DLS.get on_worker then
    for i = 0 to count - 1 do
      check_deadline ();
      body i
    done
  else begin
    let slices = Stdlib.min count (jobs * 8) in
    let slice_len = (count + slices - 1) / slices in
    let next = Atomic.make 0 in
    let failures = Atomic.make [] in
    let failed () = match Atomic.get failures with [] -> false | _ -> true in
    let rec record f =
      let seen = Atomic.get failures in
      if not (Atomic.compare_and_set failures seen (f :: seen)) then record f
    in
    let rec run_slices () =
      let s = Atomic.fetch_and_add next 1 in
      if s < slices && not (failed ()) then begin
        let lo = s * slice_len in
        let hi = Stdlib.min count (lo + slice_len) - 1 in
        (try
           for i = lo to hi do
             if not (failed ()) then body i
           done
         with exn -> record { exn; backtrace = Printexc.get_raw_backtrace () });
        run_slices ()
      end
    in
    (* A spawned domain starts with zero counters, so its final snapshot is
       exactly the work its slices did. *)
    let worker () =
      Domain.DLS.set on_worker true;
      run_slices ();
      Instrument.snapshot ()
    in
    (* Spawning can fail (the runtime caps live domains at ~128, and
       the "parallel.spawn" fault site simulates exactly that): the domains
       already spawned and the caller then share the slices. *)
    let rec spawn k acc =
      if k = 0 then acc
      else
        match
          Faults.point "parallel.spawn";
          Domain.spawn worker
        with
        | d -> spawn (k - 1) (d :: acc)
        | exception _ -> acc
    in
    let domains = spawn (Stdlib.min jobs slices - 1) [] in
    let saved = Domain.DLS.get on_worker in
    Domain.DLS.set on_worker true;
    run_slices ();
    Domain.DLS.set on_worker saved;
    List.iter (fun d -> credit (Domain.join d)) domains;
    match List.rev (Atomic.get failures) with
    | [] -> ()
    | [ { exn; backtrace } ] -> Printexc.raise_with_backtrace exn backtrace
    | { exn; backtrace } :: _ as all ->
      Printexc.raise_with_backtrace
        (Multiple_failures { count = List.length all; first = exn })
        backtrace
  end

let map_array ?jobs f xs =
  let jobs = resolve_jobs jobs in
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_tasks ~jobs ~count:n (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?jobs f xs = Array.to_list (map_array ?jobs f (Array.of_list xs))

(* --- Per-task isolation ------------------------------------------------- *)

type task_error = {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(* Run one isolated task: arm the cooperative deadline for this domain,
   pass through the "parallel.task" fault site, and catch everything —
   [with_deadline] adds the post-hoc overrun check for tasks that ran past
   their budget without reaching a checkpoint. Never raises. *)
let guarded ~deadline_s f x index =
  let body () =
    Faults.point "parallel.task";
    f x
  in
  match
    match deadline_s with
    | None -> body ()
    | Some deadline_s -> with_deadline ~deadline_s body
  with
  | v -> Ok v
  | exception exn ->
    Error { index; exn; backtrace = Printexc.get_raw_backtrace () }

let map_result ?jobs ?deadline_s f xs =
  (match deadline_s with
   | Some d when d <= 0. -> invalid_arg "Parallel.map_result: deadline must be > 0"
   | _ -> ());
  map ?jobs
    (fun (i, x) -> guarded ~deadline_s f x i)
    (List.mapi (fun i x -> (i, x)) xs)
