(* The repository benchmark.  One run measures one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --el-sim PATH [--tiny]

   prints its detail lines, then one JSON object as the last line of
   standard output.  Untraced runs (--trace 0) report the end-to-end
   metrics; traced runs (--trace 1) report the per-layer metrics.
   perfbench/README.md explains the workloads and the metrics. *)

(* name, unit; every run reports every metric of its kind. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("rate_per_s", "1/s");
    ("p50_us", "us");
    ("peak_rss_mb", "MB");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  [
    ("harness.probes", "count");
    ("harness.probe_s", "s");
    ("harness.prepare_s", "s");
    ("sim.events_per_tx", "count");
    ("sim.dispatch_s", "s");
    ("core.sink_s", "s");
    ("core.sink_calls", "count");
    ("core.minor_words_per_tx", "words");
    ("disk.log_writes", "count");
    ("disk.flush_completions", "count");
    ("disk.flush_backlog_peak", "count");
    ("shard.sink_s", "s");
    ("shard.route_engine_s", "s");
    ("shard.mailbox_ops_per_tx", "count");
    ("shard.prepares_per_cross_tx", "count");
    ("shard.blocked", "count");
    ("serve.exec_begin_us", "us");
    ("serve.exec_write_us", "us");
    ("serve.exec_commit_us", "us");
    ("serve.wire_us", "us");
    ("serve.ack_p99_us", "us");
    ("store.pwrites_per_commit", "count");
    ("store.barriers_per_commit", "count");
    ("store.bytes_per_commit", "B");
    ("store.append_us", "us");
    ("store.sync_us", "us");
    ("store.append_sync_us", "us");
    ("store.attach_s", "s");
    ("store.scan_s", "s");
    ("store.scan_mb_per_s", "MB/s");
    ("store.image_mb", "MB");
    ("store.segments", "count");
    ("store.live_ratio", "ratio");
    ("recovery.lift_s", "s");
    ("recovery.redo_s", "s");
    ("recovery.records_scanned", "count");
    ("recovery.redo_applied", "count");
    ("restart.unattributed_s", "s");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

let workloads =
  [
    ("paper_fig4", Wl_fig4.run);
    ("serve_commit", Wl_serve.run);
    ("restart", Wl_restart.run);
    ("sharded_2pc", Wl_shard.run);
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Removes a directory tree the benchmark created. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let out_dir = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let main ~workload ~seed ~seconds ~trace ~el_sim ~tiny =
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  ensure_dir out_dir;
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  ensure_dir tmp;
  at_exit (fun () -> remove_tree tmp);
  Trace.enabled := trace;
  let opts = { Report.seed; seconds; trace; tiny; el_sim; tmp } in
  let r = run opts in
  List.iter print_endline r.Report.lines;
  let ok_ratio =
    Report.fl (r.Report.attempted - r.Report.failed) /. Report.fl r.Report.attempted
  in
  let values, names =
    if trace then (r.Report.layers, per_layer)
    else (("ok_ratio", ok_ratio) :: r.Report.e2e, end_to_end)
  in
  let finite = ref true in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v when Float.is_finite v -> v
          | Some _ ->
            Printf.printf "metric %s is not finite\n" name;
            finite := false;
            0.0
          | None -> 0.0
        in
        Printf.printf "%-28s %14.4f %s\n" name v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      names
  in
  if trace then begin
    let path =
      Filename.concat out_dir
        (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed)
    in
    Trace.write_jsonl path;
    Printf.printf "spans written to %s\n" path
  end;
  let correct = r.Report.failed = 0 && r.Report.attempted > 0 && !finite in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.Report.attempted r.Report.failed
    (String.concat ", " metrics)

let () =
  match Array.to_list Sys.argv with
  | _ :: "make-image" :: rest -> Wl_restart.make_image_main rest
  | _ :: args ->
    let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
    let trace = ref false and el_sim = ref "" and tiny = ref false in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := v = "1"; parse rest
      | "--el-sim" :: v :: rest -> el_sim := v; parse rest
      | "--tiny" :: rest -> tiny := true; parse rest
      | [] -> ()
      | a :: _ ->
        Printf.eprintf "perfbench: bad argument %S\n" a;
        exit 2
    in
    parse args;
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~el_sim:!el_sim ~tiny:!tiny
  | [] -> exit 2
