(* restart: Serve.start (attach, then recover) on a crashed image.
   Set-up runs the paper's EL workload on the mem store to a crash
   instant and writes the frozen image to a file; the simulated
   recovery of the same crash is the expected answer.  The timed part
   restarts from a byte-identical copy of the image, again and again.
   It reads the store layer serve_commit writes, so a format change
   that speeds one side and slows the other shows up; the manager does
   no work here.  Cost grows with image bytes, not live log size. *)

open El_model
module Experiment = El_harness.Experiment
module Recovery = El_recovery.Recovery
module Log_store = El_store.Log_store
module Backend = El_store.Backend
module Serve = El_serve.Serve

let num_objects = 10_000_000
let policy = El_core.Policy.default ~generation_sizes:[| 18; 16 |]

(* About 10^6 record entries (tens of MB) at full size. *)
let crash_at ~tiny = Time.of_sec (if tiny then 60 else 1200)

(* The answer a restart must reproduce: the simulated crash image
   (whose reference is the acked committed state) and its recovery. *)
type expected = { image : Recovery.image; recovery : Recovery.result }

(* ---- set-up, run in a child process ---- *)

let generate ~seed ~tiny ~out =
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let cfg =
    {
      (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
      Experiment.seed;
      num_objects;
      runtime = crash_at ~tiny;
      backend = Experiment.Mem_store;
    }
  in
  let live = Experiment.prepare cfg in
  Fun.protect
    ~finally:(fun () -> Experiment.dispose live)
    (fun () ->
      let captured = ref None in
      El_sim.Engine.schedule_at live.Experiment.engine cfg.Experiment.runtime
        (fun () ->
          let m = Option.get live.Experiment.el in
          let image = Recovery.crash live.Experiment.engine m in
          ignore (El_core.El_manager.persist_crash_mark m);
          let b = Log_store.backend (Option.get live.Experiment.store) in
          (* Segments are appended in sequence order, so the bytes up to
             the mark are exactly the image frozen at this instant. *)
          captured := Some (image, Backend.pread b ~off:0 ~len:(Backend.size b)));
      El_sim.Engine.run live.Experiment.engine ~until:cfg.Experiment.runtime;
      match !captured with
      | None -> failwith "restart set-up: the run stopped before the crash"
      | Some (image, bytes) ->
        Out_channel.with_open_bin (out ^ ".img") (fun oc ->
            Out_channel.output_bytes oc bytes);
        let expected = { image; recovery = Recovery.recover image } in
        Out_channel.with_open_bin (out ^ ".expected") (fun oc ->
            Marshal.to_channel oc expected []))

(* [bench.exe make-image SEED tiny|full OUT] *)
let make_image_main = function
  | [ seed; size; out ] ->
    generate ~seed:(int_of_string seed) ~tiny:(size = "tiny") ~out
  | _ ->
    prerr_endline "usage: bench.exe make-image SEED tiny|full OUT";
    exit 2

(* Each set-up is a fresh process, so the timed restarts run in a
   process whose peak resident memory is the restart's own. *)
let make_image (o : Report.opts) out =
  let args =
    [| Sys.executable_name; "make-image"; string_of_int o.seed;
       (if o.tiny then "tiny" else "full"); out |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "restart set-up: make-image failed"

let copy_file src dst =
  In_channel.with_open_bin src (fun ic ->
      Out_channel.with_open_bin dst (fun oc ->
          let buf = Bytes.create 65536 in
          let rec go () =
            match In_channel.input ic buf 0 65536 with
            | 0 -> ()
            | n ->
              Out_channel.output oc buf 0 n;
              go ()
          in
          go ()))

(* ---- the workload ---- *)

(* The serve_commit session is too noisy on a shared host to carry
   bounded end-to-end metrics (perfbench/README.md), so the traced
   restart run also drives a short one: it measures the serve and
   store write-side layers, which write the format this workload
   reads.  Its gates count toward this run's. *)
let serve_window = 5.0

let with_serve_layers (o : Report.opts) (own : Report.t) =
  let serve =
    Wl_serve.run { o with Report.seconds = Float.min o.seconds serve_window }
  in
  let not_own (name, _) = not (List.mem_assoc name own.Report.layers) in
  {
    own with
    Report.attempted = own.Report.attempted + serve.Report.attempted;
    failed = own.Report.failed + serve.Report.failed;
    layers = own.Report.layers @ List.filter not_own serve.Report.layers;
    lines =
      own.Report.lines @ List.map (fun l -> "serve session: " ^ l) serve.Report.lines;
  }

let setups = 3

let same_recovery (a : Recovery.result) (b : Recovery.result) =
  El_disk.Stable_db.equal a.Recovery.recovered b.Recovery.recovered
  && List.sort Ids.Tid.compare a.Recovery.committed_tids
     = List.sort Ids.Tid.compare b.Recovery.committed_tids

let run (o : Report.opts) =
  let prefix i = Filename.concat o.tmp (Printf.sprintf "crash%d" i) in
  let setup =
    Array.init setups (fun i ->
        let t0 = Trace.now () in
        make_image o (prefix i);
        Trace.now () -. t0)
  in
  let image_file = prefix 0 ^ ".img" in
  (* The same seed must give the same image, byte for byte. *)
  let digest = Digest.file image_file in
  let deterministic =
    List.for_all
      (fun i -> Digest.file (prefix i ^ ".img") = digest)
      (List.init (setups - 1) succ)
  in
  let image_bytes = (Unix.stat image_file).Unix.st_size in
  let expected : expected =
    In_channel.with_open_bin (prefix 0 ^ ".expected") Marshal.from_channel
  in
  let image_mb = Report.fl image_bytes /. 1048576.0 in
  let target = Filename.concat o.tmp "restart.img" in
  let restarts = ref 0 and failed = ref (if deterministic then 0 else 1) in
  let walls = ref [] and traced_walls = ref [] and plain_walls = ref [] in
  let attach = ref [] and scan = ref [] and lift = ref [] and redo = ref [] in
  let shape = ref None in
  (* The four steps Serve.start takes, without the manager wiring that
     follows them; traced, each step is one span. *)
  let steps ~traced =
    let timed acc name f =
      if not traced then f ()
      else begin
        let t0 = Trace.now () in
        let r = Trace.span name f in
        acc := (Trace.now () -. t0) :: !acc;
        r
      end
    in
    let t0 = Trace.now () in
    let b = Backend.file ~path:target in
    Fun.protect
      ~finally:(fun () -> Backend.close b)
      (fun () ->
        ignore (timed attach "store.attach" (fun () -> Log_store.attach b));
        let s = timed scan "store.scan" (fun () -> Log_store.scan b) in
        let img =
          timed lift "recovery.lift" (fun () -> Recovery.image_of_scan ~num_objects s)
        in
        let r = timed redo "recovery.redo" (fun () -> Recovery.recover img) in
        shape := Some (s, r));
    let wall = Trace.now () -. t0 in
    if traced then traced_walls := wall :: !traced_walls
    else plain_walls := wall :: !plain_walls
  in
  (* A traced run cycles three kinds of pass: Serve.start, the traced
     steps, and the same steps untraced (for the tracing overhead). *)
  Report.repeat o ~min_passes:3 (fun i ->
      copy_file image_file target;
      match if o.trace then i mod 3 else 0 with
      | 1 -> steps ~traced:true
      | 2 -> steps ~traced:false
      | _ ->
        let t0 = Trace.now () in
        let t =
          Serve.start
            { (Serve.default_config ~image:target) with
              Serve.kind = Experiment.Ephemeral policy; num_objects }
        in
        walls := (Trace.now () -. t0) :: !walls;
        let got = Serve.recovered t in
        Serve.close t;
        incr restarts;
        if
          not
            (same_recovery got expected.recovery
            && (Recovery.audit expected.image got).Recovery.ok)
        then incr failed);
  Sys.remove target;
  let walls = Array.of_list !walls in
  let restart_s = Trace.median walls in
  let e2e =
    [
      ("setup_s", Trace.median setup);
      ("wall_s", restart_s);
      ("rate_per_s", image_mb /. restart_s);
      ("p50_us", 1e6 *. restart_s);
      ("peak_rss_mb", Trace.peak_rss_mb None);
    ]
  in
  let layers =
    match !shape with
    | None -> []
    | Some (s, r) ->
      let m l = Trace.median (Array.of_list !l) in
      let parts = m attach +. m scan +. m lift +. m redo in
      let entries =
        (image_bytes - (s.Log_store.s_segments * El_store.Codec.header_bytes))
        / El_store.Codec.entry_bytes
      in
      let live =
        List.fold_left
          (fun acc b -> acc + List.length b.Log_store.sb_records)
          0 s.Log_store.s_blocks
      in
      [
        ("store.attach_s", m attach);
        ("store.scan_s", m scan);
        ("store.scan_mb_per_s", image_mb /. m scan);
        ("store.image_mb", image_mb);
        ("store.segments", Report.fl s.Log_store.s_segments);
        ("store.live_ratio", Report.ratio live entries);
        ("recovery.lift_s", m lift);
        ("recovery.redo_s", m redo);
        ("recovery.records_scanned", Report.fl r.Recovery.records_scanned);
        ("recovery.redo_applied", Report.fl r.Recovery.redo_applied);
        ("restart.unattributed_s", restart_s -. parts);
        ( "trace.overhead_pct",
          let traced = m traced_walls and plain = m plain_walls in
          Report.pct (traced -. plain) plain );
        ("trace.coverage_pct", Report.pct parts restart_s);
      ]
  in
  let own =
    {
      Report.attempted = !restarts + 1;
      failed = !failed;
      e2e;
      layers;
      lines =
        [
          Printf.sprintf "image: %.1f MB, set-up images identical: %b"
            image_mb deterministic;
          Printf.sprintf "restart_s = %.4f s (median of %d restarts)" restart_s
            (Array.length walls);
        ];
    }
  in
  if o.trace then with_serve_layers o own else own
