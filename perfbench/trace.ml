(* Benchmark-side tracing.  Every layer is measured from outside: the
   workloads call the library's public functions and wrap them here.
   Coarse spans (a probe, a plant build, an attach, a scan...) go to an
   in-memory list that is written out when the run ends; fine-grained
   calls (millions of sink calls per search) go to self-time
   accumulators instead, so the trace stays small. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = now () in
    let close () =
      current := parent;
      spans := { id; parent; name; start; stop = now () } :: !spans
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

let duration s = s.stop -. s.start

(* Total time of every span called [name]. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 !spans

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"stop\":%.9f}\n"
            s.id s.parent s.name s.start s.stop)
        (List.rev !spans))

(* ---- self-time accumulators ---- *)

type acc = { mutable self : float; mutable calls : int }

let acc () = { self = 0.0; calls = 0 }

(* Time spent in timed calls nested inside the one now running: a sink
   call that synchronously triggers another (an ack launching the next
   transaction) charges the inner call to its own accumulator only. *)
let nested = ref 0.0

let timed a f =
  let outer = !nested in
  nested := 0.0;
  let t0 = now () in
  let close () =
    let d = now () -. t0 in
    a.self <- a.self +. d -. !nested;
    a.calls <- a.calls + 1;
    nested := outer +. d
  in
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

(* The workload generator's sink with every call charged to [a]. *)
let wrap_sink a (s : El_workload.Generator.sink) : El_workload.Generator.sink =
  {
    begin_tx =
      (fun ~tid ~expected_duration ->
        timed a (fun () -> s.begin_tx ~tid ~expected_duration));
    write_data =
      (fun ~tid ~oid ~version ~size ->
        timed a (fun () -> s.write_data ~tid ~oid ~version ~size));
    request_commit =
      (fun ~tid ~on_ack -> timed a (fun () -> s.request_commit ~tid ~on_ack));
    request_abort = (fun ~tid -> timed a (fun () -> s.request_abort ~tid));
  }

(* ---- statistics ---- *)

(* Linear-interpolation quantile of an unsorted sample, q in [0, 1]. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Peak resident set of a process, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())
