(* In-memory span recorder for the traced benchmark run.

   Spans are opened around the benchmark's own calls into predlab's
   libraries (never inside them). Each records a name, start and end on
   the monotonic clock, and the span that was open on the same domain
   when it started (its parent). Nothing is written until the run ends:
   [write_chrome] emits Chrome trace-event JSON through Prelude.Json, and
   [table] folds the spans into count / total / self time per name. *)

module Json = Prelude.Json

type t = {
  id : int;
  name : string;
  parent : int;  (* 0 = root *)
  domain : int;
  start_s : float;
  end_s : float;
}

let enabled = ref false
let mu = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* The innermost open span on this domain. *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let record span =
  Mutex.lock mu;
  recorded := span :: !recorded;
  Mutex.unlock mu

(* [with_ name f] runs [f] inside a span when tracing is on, and is a
   plain call otherwise. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start_s = Prelude.Mono.now () in
    let finish () =
      let end_s = Prelude.Mono.now () in
      Domain.DLS.set current parent;
      record
        { id; name; parent; domain = (Domain.self () :> int); start_s; end_s }
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans () = List.rev !recorded
let duration s = s.end_s -. s.start_s

let named name =
  List.filter (fun s -> String.equal s.name name) (spans ())

(* Total seconds of every span with this name (0. if none). *)
let total name =
  List.fold_left (fun acc s -> acc +. duration s) 0. (named name)

(* Self time: the span's duration minus the time its children cover.
   Children are opened on the parent's domain and nest inside it, so
   their durations do not overlap one another. *)
let self_times all =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
       let prev = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
       Hashtbl.replace children s.parent (prev +. duration s))
    all;
  List.map
    (fun s ->
       let covered = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
       (s, Float.max 0. (duration s -. covered)))
    all

(* Rows of (name, count, total_s, self_s), by total time, descending. *)
let table () =
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
       let n, tot, sf =
         Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt rows s.name)
       in
       Hashtbl.replace rows s.name (n + 1, tot +. duration s, sf +. self))
    (self_times (spans ()));
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) rows []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

let print_table oc =
  Printf.fprintf oc "%-52s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, tot, sf) ->
       Printf.fprintf oc "%-52s %8d %12.6f %12.6f\n" name n tot sf)
    (table ())

(* Chrome trace-event format: one complete ("X") event per span, times in
   microseconds from the first span's start. *)
let write_chrome ~metadata path =
  let all = spans () in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start_s) infinity all
  in
  let us x = Json.Float ((x -. origin) *. 1e6) in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("cat", Json.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.String "X");
        ("ts", us s.start_s);
        ("dur", Json.Float (duration s *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.domain);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]) ]
  in
  let doc =
    Json.Obj
      [ ("traceEvents", Json.List (List.map event all));
        ("displayTimeUnit", Json.String "ms");
        ("metadata", metadata) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
