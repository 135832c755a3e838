(* serve_commit: the real [el-sim serve --group-fsync] on a fresh file
   image, driven over its Unix socket by one closed-loop client.  This
   is the wall-clock durable path: protocol parse, manager, log-channel
   seal, segment codec, pwrite and one fsync per ack.  The simulation
   engine does little.  Per-segment fsync mode is measured at the store
   layer instead (the append/sync probe below), not as a workload. *)

module Serve = El_serve.Serve
module Log_store = El_store.Log_store
module Backend = El_store.Backend

let num_objects = 100_000

(* ---- the seeded client script ---- *)

(* One transaction: BEGIN, 1-8 WRITEs to distinct objects, COMMIT.
   Versions count up per object, so the last acked version of every
   object is known to the client. *)
type script = {
  rng : Random.State.t;
  next_version : int array;
  mutable next_tid : int;
}

let script seed =
  {
    rng = Random.State.make [| seed; 0x5e7e |];
    next_version = Array.make num_objects 1;
    next_tid = 1;
  }

let next_tx s =
  let tid = s.next_tid in
  s.next_tid <- tid + 1;
  let n = 1 + Random.State.int s.rng 8 in
  let rec draw acc k =
    if k = 0 then acc
    else
      let oid = Random.State.int s.rng num_objects in
      if List.mem oid acc then draw acc k else draw (oid :: acc) (k - 1)
  in
  let writes =
    List.map
      (fun oid ->
        let v = s.next_version.(oid) in
        s.next_version.(oid) <- v + 1;
        (oid, v))
      (draw [] n)
  in
  (tid, writes)

let begin_line tid = Printf.sprintf "BEGIN %d" tid
let write_line tid (oid, v) = Printf.sprintf "WRITE %d %d %d" tid oid v
let commit_line tid = Printf.sprintf "COMMIT %d" tid

let is_ok reply = String.length reply >= 3 && String.sub reply 0 3 = "ok "

(* ---- the server process ---- *)

type server = { pid : int; ic : in_channel; oc : out_channel }

let socket_path (o : Report.opts) = Filename.concat o.tmp "serve.sock"
let image_path (o : Report.opts) = Filename.concat o.tmp "serve.img"

let rec connect path deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when Trace.now () < deadline ->
    Unix.close fd;
    Unix.sleepf 0.001;
    connect path deadline
  | exception e ->
    Unix.close fd;
    raise e

(* Spawns the server and returns once its socket accepts a client. *)
let start_server (o : Report.opts) ~fresh =
  let sock = socket_path o in
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ o.el_sim; "serve"; "--image"; image_path o; "--socket"; sock;
      "--objects"; string_of_int num_objects; "--group-fsync" ]
    @ if fresh then [ "--fresh" ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat o.tmp "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process o.el_sim (Array.of_list args) null log log
  in
  Unix.close null;
  Unix.close log;
  let fd =
    try connect sock (Trace.now () +. 30.0)
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  { pid; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let kill_server s =
  (try close_out s.oc with Sys_error _ -> ());
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)

let request s line =
  output_string s.oc line;
  output_char s.oc '\n';
  flush s.oc;
  input_line s.ic

let stat_field reply key =
  List.find_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.sub kv 0 i = key ->
        float_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> None)
    (String.split_on_char ' ' reply)
  |> Option.value ~default:nan

(* ---- the store-layer probe: append + sync in both sync modes ---- *)

(* Data records enough that one segment is about [bytes] long. *)
let segment_records bytes =
  let n =
    max 1 ((int_of_float bytes - El_store.Codec.header_bytes) / El_store.Codec.entry_bytes)
  in
  List.init n (fun i ->
      El_model.Log_record.data ~tid:(El_model.Ids.Tid.of_int 1)
        ~oid:(El_model.Ids.Oid.of_int i) ~version:1 ~size:100
        ~timestamp:El_model.Time.zero)

(* Per-append and per-sync latencies on a scratch image, [n] segments
   in each mode: Manual (append, then an explicit sync) and Immediate
   (the append barriers itself, serve's default per-segment path). *)
let store_probe (o : Report.opts) ~bytes ~n =
  let records = segment_records bytes in
  let path = Filename.concat o.tmp "probe.img" in
  let with_store mode f =
    let b = Backend.file ~path in
    let st = Log_store.create ~sync_mode:mode b in
    Fun.protect ~finally:(fun () -> Backend.close b; Sys.remove path) (fun () -> f st)
  in
  let append st i = Log_store.append_block st ~gen:0 ~slot:(i mod 64) records in
  let append_us = Array.make n 0.0 and sync_us = Array.make n 0.0 in
  with_store Log_store.Manual (fun st ->
      for i = 0 to n - 1 do
        let t0 = Trace.now () in
        Trace.span "store.append" (fun () -> append st i);
        let t1 = Trace.now () in
        Trace.span "store.sync" (fun () -> Log_store.sync st);
        append_us.(i) <- 1e6 *. (t1 -. t0);
        sync_us.(i) <- 1e6 *. (Trace.now () -. t1)
      done);
  let append_sync_us = Array.make n 0.0 in
  with_store Log_store.Immediate (fun st ->
      for i = 0 to n - 1 do
        let t0 = Trace.now () in
        Trace.span "store.append_sync" (fun () -> append st i);
        append_sync_us.(i) <- 1e6 *. (Trace.now () -. t0)
      done);
  (Trace.median append_us, Trace.median sync_us, Trace.median append_sync_us)

(* ---- in-process Serve.exec on the same script ---- *)

(* Runs [txs] transactions of the seeded script through Serve.exec on
   a fresh image; returns the session's wall time and the number of
   replies that were not [ok].  With [samples], each exec is timed
   into the begin, write or commit list. *)
let in_process (o : Report.opts) ~txs samples =
  let image = Filename.concat o.tmp "inproc.img" in
  let t =
    Serve.start
      { (Serve.default_config ~image) with
        Serve.fresh = true; num_objects; group_fsync = true }
  in
  let s = script o.seed in
  let bad = ref 0 in
  let exec pick line =
    let reply =
      match samples with
      | None -> Serve.exec t line
      | Some lists ->
        let t0 = Trace.now () in
        let r = Trace.span "serve.exec" (fun () -> Serve.exec t line) in
        let l = pick lists in
        l := (1e6 *. (Trace.now () -. t0)) :: !l;
        r
    in
    match reply with Some r, _ when is_ok r -> () | _ -> incr bad
  in
  let t0 = Trace.now () in
  Fun.protect
    ~finally:(fun () -> Serve.close t; Sys.remove image)
    (fun () ->
      for _ = 1 to txs do
        let tid, writes = next_tx s in
        exec (fun (b, _, _) -> b) (begin_line tid);
        List.iter (fun wr -> exec (fun (_, w, _) -> w) (write_line tid wr)) writes;
        exec (fun (_, _, c) -> c) (commit_line tid)
      done);
  (Trace.now () -. t0, !bad)

(* ---- the workload ---- *)

let setups = 11

let run (o : Report.opts) =
  let setup =
    Array.init setups (fun i ->
        let t0 = Trace.now () in
        let s = start_server o ~fresh:true in
        let d = Trace.now () -. t0 in
        if i < setups - 1 then kill_server s;
        (d, s))
  in
  let server = snd setup.(setups - 1) in
  let setup = Array.map fst setup in
  let s = script o.seed in
  let acked = Hashtbl.create 65536 in
  let attempted = ref 0 and failed = ref 0 in
  let acks = ref [] and tx_walls = ref [] and commits = ref 0 in
  (* Throughput is taken per one-second window and reported as the
     median window, so a burst of slow fsyncs moves it less than a
     whole-run mean would. *)
  let windows = ref [] and w_start = ref 0.0 and w_commits = ref 0 in
  let send line =
    incr attempted;
    let r = request server line in
    if not (is_ok r) then incr failed;
    is_ok r
  in
  let window = if o.tiny then min o.seconds 1.0 else o.seconds in
  let t_start = Trace.now () in
  w_start := t_start;
  let stats_reply, peak_rss =
    Fun.protect
      ~finally:(fun () -> kill_server server)
      (fun () ->
        while Trace.now () -. t_start < window do
          let tid, writes = next_tx s in
          let t0 = Trace.now () in
          let ok = send (begin_line tid) in
          let ok = List.fold_left (fun ok wr -> send (write_line tid wr) && ok) ok writes in
          let t1 = Trace.now () in
          let committed = send (commit_line tid) in
          let t2 = Trace.now () in
          acks := (1e6 *. (t2 -. t1)) :: !acks;
          tx_walls := (t2 -. t0) :: !tx_walls;
          if ok && committed then begin
            incr commits;
            incr w_commits;
            List.iter (fun (oid, v) -> Hashtbl.replace acked oid v) writes
          end;
          if t2 -. !w_start >= 1.0 || !windows = [] && t2 -. t_start >= window
          then begin
            windows := (!w_commits, t2 -. !w_start) :: !windows;
            w_start := t2;
            w_commits := 0
          end
        done;
        let elapsed = Trace.now () -. t_start in
        let stats = request server "STAT" in
        (* Read the high-water mark before the kill reaps the process. *)
        ((stats, elapsed), Trace.peak_rss_mb (Some server.pid)))
  in
  let stats, elapsed = stats_reply in
  (* Durability gate: SIGKILL (above), restart on the image, and read
     back every object this client wrote. *)
  let lost = ref 0 in
  let restarted = start_server o ~fresh:false in
  Fun.protect
    ~finally:(fun () -> kill_server restarted)
    (fun () ->
      let oids = Hashtbl.fold (fun oid v acc -> (oid, v) :: acc) acked [] in
      List.iter
        (fun (oid, v) ->
          incr attempted;
          let r = request restarted (Printf.sprintf "READ %d" oid) in
          match String.split_on_char ' ' r with
          | [ "ok"; "read"; _; got ] when int_of_string_opt got = Some v -> ()
          | _ -> incr lost)
        oids);
  failed := !failed + !lost;
  let acks = Array.of_list !acks and tx_walls = Array.of_list !tx_walls in
  let ack_p50 = Trace.median acks and ack_p99 = Trace.quantile 0.99 acks in
  let windows = Array.of_list !windows in
  let per_window f = Trace.median (Array.map (fun (n, d) -> f (Report.fl n) d) windows) in
  let e2e =
    [
      ("setup_s", Trace.median setup);
      ("wall_s", per_window (fun n d -> d /. n));
      ("rate_per_s", per_window (fun n d -> n /. d));
      ("p50_us", ack_p50);
      ("peak_rss_mb", peak_rss);
    ]
  in
  let stat key = stat_field stats key in
  let server_commits = stat "commits" in
  let layers =
    if not o.trace then []
    else begin
      (* Untraced and traced sessions alternate, so host drift during
         the probe hits both sides alike. *)
      let txs = if o.tiny then 200 else 2000 and pairs = 3 in
      let b = ref [] and w = ref [] and c = ref [] in
      let session samples =
        let wall, bad = in_process o ~txs samples in
        attempted := !attempted + txs;
        failed := !failed + bad;
        wall
      in
      let untraced, traced =
        List.split
          (List.init pairs (fun _ ->
               let u = session None in
               (u, session (Some (b, w, c)))))
      in
      let untraced_wall = Trace.median (Array.of_list untraced) in
      let traced_wall = Trace.median (Array.of_list traced) in
      let b = Array.of_list !b and w = Array.of_list !w and c = Array.of_list !c in
      let exec_commit = Trace.median c in
      let per_pwrite = stat "bytes" /. stat "pwrites" in
      let append_us, sync_us, append_sync_us =
        store_probe o ~bytes:per_pwrite ~n:(if o.tiny then 50 else 2000)
      in
      let writes_per_tx = Report.fl (Array.length w) /. Report.fl (Array.length c) in
      let exec_tx =
        Trace.median b +. (writes_per_tx *. Trace.median w) +. exec_commit
      in
      [
        ("serve.exec_begin_us", Trace.median b);
        ("serve.exec_write_us", Trace.median w);
        ("serve.exec_commit_us", exec_commit);
        ("serve.wire_us", ack_p50 -. exec_commit);
        ("serve.ack_p99_us", ack_p99);
        ("store.pwrites_per_commit", stat "pwrites" /. server_commits);
        ("store.barriers_per_commit", stat "barriers" /. server_commits);
        ("store.bytes_per_commit", stat "bytes" /. server_commits);
        ("store.append_us", append_us);
        ("store.sync_us", sync_us);
        ("store.append_sync_us", append_sync_us);
        ( "trace.overhead_pct",
          Report.pct (traced_wall -. untraced_wall) untraced_wall );
        ("trace.coverage_pct", Report.pct (1e-6 *. exec_tx) (Trace.median tx_walls));
      ]
    end
  in
  {
    Report.attempted = !attempted;
    failed = !failed;
    e2e;
    layers;
    lines =
      [
        Printf.sprintf
          "commits_per_s = %.1f (median of %d one-second windows; %d acked \
           commits in %.2f s)"
          (per_window (fun n d -> n /. d)) (Array.length windows) !commits elapsed;
        Printf.sprintf "ack_p50_us = %.1f, ack_p99_us = %.1f (%d samples)"
          ack_p50 ack_p99 (Array.length acks);
        Printf.sprintf "durability gate: %d objects read back, %d lost"
          (Hashtbl.length acked) !lost;
        stats;
      ];
  }
