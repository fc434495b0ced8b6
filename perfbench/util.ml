(* Small helpers shared by the workloads: clocks, order statistics,
   child processes and their peak memory. *)

let now = Prelude.Mono.now

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Seconds [f ()] takes, with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Peak resident set (VmHWM) of a live process, in MiB; 0. when the
   process is gone or the field is unavailable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = try scan () with Scanf.Scan_failure _ | Failure _ -> 0. in
    close_in ic;
    v

let self_peak_rss_mb () = peak_rss_mb "self"

let spawn ?(stdout = Unix.stdout) prog args =
  Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
    Unix.stderr

(* Run [prog args] to completion with its standard output captured in
   [out_path]. Returns (exit code, elapsed seconds, peak RSS in MiB).
   The peak is the last VmHWM read while the child was alive, polled every
   10 ms, so growth in its final 10 ms can be missed. Without [poll_rss]
   the wait blocks, so the elapsed time carries no polling delay. *)
let run_captured ?(poll_rss = true) ~out_path prog args =
  let fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid = spawn ~stdout:fd prog args in
  Unix.close fd;
  let rec wait peak =
    match Unix.waitpid (if poll_rss then [ Unix.WNOHANG ] else []) pid with
    | 0, _ ->
      let peak = Float.max peak (peak_rss_mb (string_of_int pid)) in
      Unix.sleepf 0.01;
      wait peak
    | _, status -> (status, now () -. t0, peak)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait peak
  in
  let status, elapsed, peak = wait 0. in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (code, elapsed, peak)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* What every workload receives, and what it reports. *)
type ctx = {
  seed : int;
  seconds : float;  (* measuring budget of one run *)
  predlab : string;  (* the built predlab executable *)
  out_dir : string;  (* scratch files, sockets and traces *)
}

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let fail_frac ~attempted ~failed =
  if attempted = 0 then 1. else float_of_int failed /. float_of_int attempted

(* A layer metric derived from spans: median seconds of [name]. *)
let span_median name =
  median (List.map Span.duration (Span.named name))
