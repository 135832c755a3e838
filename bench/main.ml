(* Benchmark harness: regenerates every figure and in-text result of
   the paper's evaluation (§4) next to the paper's reference values,
   adds experiments beyond the paper, and runs Bechamel
   micro-benchmarks of the core machinery.

   Usage: bench/main.exe [--quick] [--jobs N] [--json PATH] [SECTION...]

   The [sections] table at the bottom of this file is the list of
   selectors, the SECTIONS part of --help and the run order.  With no
   selector every section runs; an unknown selector is a usage error.
   --quick shortens the simulated runs (120 s instead of the paper's
   500 s) and coarsens sweeps; the shapes still hold, absolute numbers
   move slightly.  --jobs N runs the independent simulations behind
   each sweep on N domains (default 1 = serial; tables and JSON are
   identical either way, see lib/par).  --json writes a
   machine-readable summary ("el-bench/1" schema) of every section
   that ran, for CI regression checks and committed baselines.

   Every number a section reports is a [field]: a label, optionally
   the paper's value, optionally a JSON key, and a [value] that knows
   both its display string and its JSON form.  [table] and [metrics]
   print a field list and return its keyed JSON, so the terminal and
   the JSON file are two renderings of one list. *)

open El_model
module Table = El_metrics.Table
module Paper = El_harness.Paper
module Experiment = El_harness.Experiment
module Policy = El_core.Policy
module J = El_obs.Jsonx

(* ---- fields: one declaration per reported number ---- *)

type value = { text : string; json : J.t; align : Table.align }

let j_ints a = J.List (Array.to_list (Array.map (fun i -> J.Int i) a))
let plus a = String.concat "+" (Array.to_list (Array.map string_of_int a))

let int ?text i =
  {
    text = Option.value text ~default:(string_of_int i);
    json = J.Int i;
    align = Table.Right;
  }

let num ?(digits = 2) ?(suffix = "") x =
  {
    text = Printf.sprintf "%.*f%s" digits x suffix;
    json = J.Float x;
    align = Table.Right;
  }

let sizes a = { text = plus a; json = j_ints a; align = Table.Left }
let text s = { text = s; json = J.String s; align = Table.Left }

let flag ?(yes = "yes") ?(no = "no") b =
  { text = (if b then yes else no); json = J.Bool b; align = Table.Left }

type field = {
  label : string option;  (** [None]: JSON only *)
  paper : string option;  (** the paper's value, printed beside ours *)
  key : string option;  (** [None]: terminal only *)
  value : value;
}

let col ?paper ?key label value = { label = Some label; paper; key; value }
let json key value = { label = None; paper = None; key = Some key; value }

(* The keyed fields in order; a key seen before is skipped, so field
   lists that share a column can be concatenated. *)
let keyed fields =
  List.fold_left
    (fun acc f ->
      match f.key with
      | Some k when not (List.mem_assoc k acc) -> (k, f.value.json) :: acc
      | _ -> acc)
    [] fields
  |> List.rev

let obj fields = J.Obj (keyed fields)
let shown fields = List.filter (fun f -> f.label <> None) fields

(* One row per element of [rows], one column per labelled field.  A
   field with a paper value gets a column of its own first, headed by
   the field's label with "measured" read as "paper".  Returns each
   row's keyed fields as a JSON object. *)
let table rows =
  (match rows with
  | [] -> ()
  | first :: _ ->
    let paper_header l =
      String.split_on_char ' ' l
      |> List.map (function "measured" -> "paper" | w -> w)
      |> String.concat " "
    in
    let columns =
      List.concat_map
        (fun f ->
          let l = Option.get f.label in
          (if f.paper = None then [] else [ (paper_header l, Table.Right) ])
          @ [ (l, f.value.align) ])
        (shown first)
    in
    let t = Table.create ~columns in
    List.iter
      (fun row ->
        Table.add_row t
          (List.concat_map
             (fun f -> Option.to_list f.paper @ [ f.value.text ])
             (shown row)))
      rows;
    Table.print t);
  List.map obj rows

(* One row per labelled field: "metric | value", or "metric | paper |
   measured" when any field carries a paper value.  Returns the keyed
   fields. *)
let metrics fields =
  let with_paper = List.exists (fun f -> f.paper <> None) fields in
  let t =
    Table.create
      ~columns:
        (("metric", Table.Left)
        ::
        (if with_paper then
           [ ("paper", Table.Right); ("measured", Table.Right) ]
         else [ ("value", Table.Right) ]))
  in
  List.iter
    (fun f ->
      Table.add_row t
        ((Option.get f.label
         :: (if with_paper then [ Option.value f.paper ~default:"-" ] else []))
        @ [ f.value.text ]))
    (shown fields);
  Table.print t;
  keyed fields

(* ---- machine-readable output (--json PATH) ----

   Sections accumulate as benches run; the file is the "el-bench/1"
   schema consumed by the CI schema check and committed as
   BENCH_<date>.json. *)

(* The work pool behind every sweep; main swaps it for a real one
   when --jobs N > 1 is given.  Sections always collect results in
   submission order, so the output is identical at any job count. *)
let pool = ref El_par.Pool.serial

let json_sections : (string * J.t) list ref = ref []

(* Every object section records which durable-store backend produced
   it.  The paper benches run the pure simulation ("sim"); a section
   that measures a real store (e.g. [store]) carries its own
   "backend" field, which wins. *)
let add_section name doc =
  let doc =
    match doc with
    | J.Obj fields when not (List.mem_assoc "backend" fields) ->
      J.Obj (("backend", J.String "sim") :: fields)
    | _ -> doc
  in
  if not (List.mem_assoc name !json_sections) then
    json_sections := !json_sections @ [ (name, doc) ]

(* Allocation accounting: [with_alloc name f] records the GC words
   allocated while [f] ran under [name] in the top-level "alloc"
   object, beside [sections] rather than inside them.  These are
   [Gc.quick_stat] deltas: they track allocation volume, but two
   identical runs can differ by ~10^5 minor words, so they are not a
   regression gate, and keeping them out of [sections] leaves those
   a function of the inputs (equal at any --jobs).  The precise gates
   are the hotpath section's per-op [Gc.minor_words] counts. *)
let json_alloc : (string * J.t) list ref = ref []

let with_alloc name f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let delta words = J.Float (words s1 -. words s0) in
  if not (List.mem_assoc name !json_alloc) then
    json_alloc :=
      !json_alloc
      @ [
          ( name,
            J.Obj
              [
                ("minor_words", delta (fun s -> s.Gc.minor_words));
                ("major_words", delta (fun s -> s.Gc.major_words));
                ("promoted_words", delta (fun s -> s.Gc.promoted_words));
              ] );
        ];
  r

(* ---- Figures 4, 5, 6 and the update rates: one shared sweep ---- *)

(* Paper reference series.  The text gives exact anchors at the 5 %
   mix; the remaining points are read off the published figures and
   are therefore approximate ("~").  We compare shapes, not decimals. *)
let paper_fig4_fw =
  [ (5, "123"); (10, "~130"); (20, "~145"); (30, "~155"); (40, "~165") ]

let paper_fig4_el =
  [ (5, "34"); (10, "~45"); (20, "~65"); (30, "~85"); (40, "~105") ]

let paper_fig5_fw =
  [ (5, "11.63"); (10, "~12.0"); (20, "~12.8"); (30, "~13.5"); (40, "~14.3") ]

let paper_fig5_el =
  [ (5, "12.87"); (10, "~13.5"); (20, "~14.8"); (30, "~16.0"); (40, "~17.2") ]

let paper_rates =
  [ (5, "210"); (10, "220"); (20, "240"); (30, "260"); (40, "280") ]

let ref_for table pct =
  match List.assoc_opt pct table with Some s -> s | None -> "-"

let mix_pct (r : Paper.mix_row) =
  col ~key:"long_pct" "% 10s tx" (int r.long_pct)

let fig4_cols (r : Paper.mix_row) =
  [
    mix_pct r;
    col ~paper:(ref_for paper_fig4_fw r.long_pct) ~key:"fw_blocks"
      "FW measured" (int r.fw_blocks);
    col ~paper:(ref_for paper_fig4_el r.long_pct) ~key:"el_blocks"
      "EL measured" (int r.el_blocks);
    col ~key:"el_sizes" "EL split" (sizes r.el_sizes);
    col "ratio" (num (float_of_int r.fw_blocks /. float_of_int r.el_blocks));
  ]

let fig5_cols (r : Paper.mix_row) =
  [
    mix_pct r;
    col ~paper:(ref_for paper_fig5_fw r.long_pct) ~key:"fw_bandwidth"
      "FW measured" (num r.fw_bandwidth);
    col ~paper:(ref_for paper_fig5_el r.long_pct) ~key:"el_bandwidth"
      "EL measured" (num r.el_bandwidth);
    col "EL overhead"
      (num ~digits:1 ~suffix:"%"
         ((r.el_bandwidth -. r.fw_bandwidth) /. r.fw_bandwidth *. 100.0));
  ]

let fig6_cols (r : Paper.mix_row) =
  [
    mix_pct r;
    col ~key:"fw_memory" "FW measured" (int r.fw_memory);
    col ~key:"el_memory" "EL measured" (int r.el_memory);
    col "EL/FW" (num (float_of_int r.el_memory /. float_of_int r.fw_memory));
  ]

let rates_cols (r : Paper.mix_row) =
  [
    mix_pct r;
    col ~paper:(ref_for paper_rates r.long_pct) ~key:"updates_per_sec"
      "measured (upd/s)" (num ~digits:0 r.updates_per_sec);
  ]

(* Shared runs behind Figures 4, 5 and 6: computed once on demand,
   recorded as one "mix_sweep" section holding every figure's keys. *)
let mix_rows : (Paper.speed, Paper.mix_row list) Hashtbl.t = Hashtbl.create 2

let get_mix_rows speed =
  match Hashtbl.find_opt mix_rows speed with
  | Some rows -> rows
  | None ->
    Printf.printf
      "(running the Fig. 4/5/6 minimum-space sweeps; this is the expensive \
       part)\n%!";
    let rows =
      with_alloc "mix_sweep" (fun () -> Paper.figs_4_5_6 ~pool:!pool ~speed ())
    in
    Hashtbl.replace mix_rows speed rows;
    let all_cols r =
      List.concat_map (fun cols -> cols r)
        [ fig4_cols; fig5_cols; fig6_cols; rates_cols ]
    in
    add_section "mix_sweep"
      (J.Obj [ ("rows", J.List (List.map (fun r -> obj (all_cols r)) rows)) ]);
    rows

let mix_figure ?note cols speed =
  ignore (table (List.map cols (get_mix_rows speed)));
  Option.iter
    (fun note ->
      print_newline ();
      print_endline note)
    note

let fig4 =
  mix_figure fig4_cols
    ~note:
      "Paper's shape: EL needs a fraction of FW's space; the advantage is\n\
       largest at 5% long transactions (factor 3.6) and narrows as the\n\
       long fraction grows."

let fig5 =
  mix_figure fig5_cols
    ~note:
      "Paper's shape: EL writes slightly more than FW (11% at the 5% mix),\n\
       and the overhead grows with the fraction of long transactions."

let fig6 =
  mix_figure fig6_cols
    ~note:
      "Paper's shape: both are small (no numbers are given in the text; the\n\
       figure shows EL a small multiple of FW -- 'memory requirements are\n\
       modest'; FW pays 22 B/tx, EL 40 B/tx + 40 B/unflushed object)."

let rates = mix_figure rates_cols

(* ---- Figure 7 and the headline ---- *)

let fig7_cols (row : Paper.fig7_row) =
  [
    col ~key:"g1" "gen1 blocks" (int row.g1);
    col ~key:"total_blocks" "total blocks" (int row.total_blocks);
    col ~key:"bw_last" "bw gen1 (w/s)" (num row.bw_last);
    col ~key:"bw_total" "bw total (w/s)" (num row.bw_total);
    col ~key:"feasible" "feasible" (flag ~no:"no (kills)" row.feasible);
  ]

let fig7_cache : (Paper.speed, Paper.fig7_result) Hashtbl.t = Hashtbl.create 2

let get_fig7 speed =
  match Hashtbl.find_opt fig7_cache speed with
  | Some r -> r
  | None ->
    let r = with_alloc "fig7" (fun () -> Paper.fig7 ~pool:!pool ~speed ()) in
    Hashtbl.replace fig7_cache speed r;
    add_section "fig7"
      (J.Obj
         [
           ("g0", J.Int r.g0);
           ("no_recirc_sizes", j_ints r.no_recirc_sizes);
           ("rows", J.List (List.map (fun row -> obj (fig7_cols row)) r.rows));
         ]);
    r

let fig7 speed =
  let result = get_fig7 speed in
  Printf.printf
    "no-recirculation starting point: %s blocks (gen0=%d fixed below)\n\n"
    (plus result.no_recirc_sizes) result.g0;
  ignore (table (List.map fig7_cols result.rows));
  print_newline ();
  print_endline
    "Paper's anchors: space falls 34 -> 28 blocks while total bandwidth\n\
     rises only 12.87 -> 12.99 writes/s; shrinking further kills\n\
     transactions."

let headline speed =
  let h =
    with_alloc "headline" (fun () ->
        Paper.headline ~pool:!pool ~speed ~fig7_result:(get_fig7 speed) ())
  in
  let fields =
    metrics
      [
        col ~paper:"123" ~key:"fw_blocks" "FW disk space (blocks)"
          (int h.fw_blocks);
        col ~paper:"11.63" ~key:"fw_bandwidth" "FW bandwidth (w/s)"
          (num h.fw_bandwidth);
        col ~paper:"28" ~key:"el_blocks" "EL disk space (blocks)"
          (int h.el_blocks);
        col ~paper:"18+10" ~key:"el_sizes" "EL split" (sizes h.el_sizes);
        col ~paper:"12.99" ~key:"el_bandwidth" "EL bandwidth (w/s)"
          (num h.el_bandwidth);
        col ~paper:"4.4" ~key:"space_ratio" "space reduction factor"
          (num h.space_ratio);
        col ~paper:"12%" ~key:"bandwidth_increase_pct" "bandwidth increase"
          (num ~digits:1 ~suffix:"%" h.bandwidth_increase_pct);
      ]
  in
  add_section "headline" (J.Obj fields)

let scarce speed =
  let s = with_alloc "scarce" (fun () -> Paper.scarce_flush ~pool:!pool ~speed ()) in
  let fields =
    metrics
      [
        col ~paper:"31" ~key:"total_blocks" "EL disk space (blocks)"
          (int s.total_blocks);
        col ~paper:"20+11" ~key:"el_sizes" "EL split" (sizes s.el_sizes);
        col ~paper:"13.96" ~key:"bandwidth" "log bandwidth (w/s)"
          (num s.bandwidth);
        col ~paper:"109,000" ~key:"mean_flush_distance"
          "mean flush oid distance" (num ~digits:0 s.mean_flush_distance);
        col ~paper:"235,000" ~key:"baseline_mean_flush_distance"
          "same, 25 ms baseline" (num ~digits:0 s.baseline_mean_flush_distance);
        col ~key:"flush_backlog_peak" "peak flush backlog"
          (int s.flush_backlog_peak);
      ]
  in
  print_newline ();
  print_endline
    "Paper's shape: as the flush service rate approaches the update rate a\n\
     backlog accumulates, flush scheduling finds closer objects (smaller\n\
     mean oid distance = better locality), and EL absorbs it with a few\n\
     extra blocks -- the negative-feedback stability argument.";
  add_section "scarce" (J.Obj fields)

(* ---- beyond the paper ---- *)

let recovery_bench speed =
  let runtime =
    match speed with `Full -> Time.of_sec 120 | `Quick -> Time.of_sec 60
  in
  let policy = Policy.default ~generation_sizes:[| 18; 12 |] in
  let cfg =
    {
      (Paper.base_config ~kind:(Experiment.Ephemeral policy) ~long_pct:5 ()) with
      Experiment.runtime;
    }
  in
  let crash_at = Time.mul_int (Time.div_int runtime 4) 3 in
  let result, recovery, audit =
    with_alloc "recovery" (fun () -> Experiment.run_with_crash cfg ~crash_at)
  in
  let module R = El_recovery.Recovery in
  (* recovery-time estimates under the conservative early-90s cost
     model (15 ms positioning, 1 ms/block, 20 us/record) *)
  let el_time =
    El_recovery.Timing.single_pass ~regions:2
      ~blocks:result.Experiment.total_blocks ~records:recovery.R.records_scanned
      ()
  in
  let fw_time =
    (* the paper's FW at this mix needs ~123 blocks and two passes *)
    El_recovery.Timing.fw_two_pass ~blocks:123
      ~records:(123 * 2000 / 110) ()
  in
  let fields =
    metrics
      [
        col ~key:"log_blocks" "log blocks configured"
          (int result.Experiment.total_blocks);
        col ~key:"records_scanned" "records scanned at crash"
          (int recovery.R.records_scanned);
        col ~key:"redo_applied" "redo applied" (int recovery.R.redo_applied);
        col ~key:"committed_txs" "committed txs in log"
          (int (List.length recovery.R.committed_tids));
        col ~key:"audit_ok" "audit"
          (flag ~yes:"OK (atomic & durable)" ~no:"FAILED" audit.R.ok);
        json "el_restart_s" (num (Time.to_sec_f el_time));
        json "fw_restart_s" (num (Time.to_sec_f fw_time));
      ]
  in
  Format.printf
    "@.estimated restart time: EL single pass over %d blocks = %a;@ the \
     123-block FW span with a traditional two-pass method = %a.@ 'Recovery \
     in less than a second may be feasible' (Sec. 4) holds.@."
    result.Experiment.total_blocks El_recovery.Timing.pp el_time
    El_recovery.Timing.pp fw_time;
  add_section "recovery" (J.Obj fields)

(* The same crash/recover run as [recovery], but on the real-bytes
   path: once per store backend, with the store replay cross-checked
   against the simulated recovery.  Reports the I/O the durability
   contract costs (pwrites, fsync barriers, bytes) and the wall-clock
   spread between mem and file. *)
let store_bench speed =
  let runtime =
    match speed with `Full -> Time.of_sec 60 | `Quick -> Time.of_sec 15
  in
  let crash_at = Time.mul_int (Time.div_int runtime 4) 3 in
  let policy = Policy.default ~generation_sizes:[| 18; 12 |] in
  let view (r : El_recovery.Recovery.result) =
    ( List.sort compare
        (El_disk.Stable_db.snapshot r.El_recovery.Recovery.recovered),
      List.sort compare
        (List.map Ids.Tid.to_int r.El_recovery.Recovery.committed_tids) )
  in
  let run_backend ?(group_fsync = false) backend =
    let cfg =
      {
        (Paper.base_config ~kind:(Experiment.Ephemeral policy) ~long_pct:5 ())
        with
        Experiment.runtime;
        backend;
        num_objects = 100_000;
        group_fsync;
      }
    in
    let t0 = Unix.gettimeofday () in
    let result, sim, audit, store = Experiment.run_with_crash_store cfg ~crash_at in
    let wall = Unix.gettimeofday () -. t0 in
    let agrees =
      match store with Some s -> view s = view sim | None -> false
    in
    (result, sim, audit, wall, agrees)
  in
  (* Each file run writes a fresh temp image that disposing the run
     removes, so the system temp directory needs no cleanup. *)
  let dir = Filename.get_temp_dir_name () in
  let runs =
    with_alloc "store" (fun () ->
        [
          ("mem", run_backend Experiment.Mem_store);
          ("file", run_backend (Experiment.File_store dir));
          ( "file+group",
            run_backend ~group_fsync:true (Experiment.File_store dir) );
        ])
  in
  let backend_objs =
    table
      (List.map
         (fun (name, ((r : Experiment.result), sim, audit, wall, agrees)) ->
           [
             col "backend" (text name);
             col ~key:"pwrites" "pwrites" (int r.store_pwrites);
             col ~key:"barriers" "fsyncs" (int r.store_barriers);
             json "group_syncs" (int r.store_group_syncs);
             json "bytes_written" (int r.store_bytes_written);
             col "MB written"
               (num (float_of_int r.store_bytes_written /. 1048576.));
             col ~key:"wall_s" "wall s" (num wall);
             col ~key:"replay_agrees" "replay agrees"
               (flag ~no:"DIVERGES" agrees);
             col ~key:"audit_ok" "audit"
               (flag ~yes:"OK" ~no:"FAILED" audit.El_recovery.Recovery.ok);
             json "committed_txs"
               (int (List.length sim.El_recovery.Recovery.committed_tids));
           ])
         runs)
  in
  let backends_identical =
    match runs with
    | (_, (_, sim0, _, _, _)) :: rest ->
      List.for_all (fun (_, (_, sim, _, _, _)) -> view sim = view sim0) rest
    | [] -> false
  in
  Format.printf
    "@.mem and file recover %s state; every ack came after pwrite+fsync.@."
    (if backends_identical then "identical" else "DIFFERENT (bug!)");
  let result name =
    let r, _, _, _, _ = List.assoc name runs in
    r
  in
  let immediate_barriers = (result "file").Experiment.store_barriers in
  let grouped_barriers = (result "file+group").Experiment.store_barriers in
  let group_syncs = (result "file+group").Experiment.store_group_syncs in
  let reduction =
    float_of_int immediate_barriers /. float_of_int (max 1 grouped_barriers)
  in
  Printf.printf
    "group fsync: %d barriers (per-segment) -> %d (%d grouped waves), \
     %.1fx fewer\n"
    immediate_barriers grouped_barriers group_syncs reduction;
  add_section "store"
    (J.Obj
       (("backend", J.String "mem+file")
       :: ("backends_identical", J.Bool backends_identical)
       :: ( "group_fsync",
            J.Obj
              [
                ("immediate_barriers", J.Int immediate_barriers);
                ("grouped_barriers", J.Int grouped_barriers);
                ("group_syncs", J.Int group_syncs);
                ("barrier_reduction", J.Float reduction);
              ] )
       :: List.map2 (fun (name, _) o -> (name, o)) runs backend_objs))

(* One EL run per workload preset (beyond the paper: its evaluation
   only drives the polite two-type mix).  The geometry is the standard
   check EL chain scaled by each preset's space factor, so the rows
   show what adversity costs — contention aborts and retries under
   skew, kills and evictions under bursts and long tails — rather
   than whether a fixed log survives it. *)
let workloads_bench speed =
  let runtime =
    match speed with `Full -> Time.of_sec 240 | `Quick -> Time.of_sec 60
  in
  let kind = List.assoc "el" (El_check.Sweep.standard_kinds ()) in
  let runs =
    with_alloc "workloads" (fun () ->
        List.map
          (fun (p : El_workload.Workload_preset.t) ->
            ( p.El_workload.Workload_preset.name,
              Experiment.run
                (El_check.Sweep.standard_config ~kind ~runtime ~preset:p ()) ))
          El_workload.Workload_preset.all)
  in
  let rows =
    table
      (List.map
         (fun (name, (r : Experiment.result)) ->
           [
             col ~key:"name" "scenario" (text name);
             col ~key:"blocks" "blocks" (int r.total_blocks);
             col ~key:"committed" "committed" (int r.committed);
             col ~key:"killed" "killed" (int r.killed);
             col ~key:"contention_aborts" "c-aborts" (int r.contention_aborts);
             col ~key:"contention_retries" "retries" (int r.contention_retries);
             col ~key:"evictions" "evictions" (int r.evictions);
             col ~key:"log_write_rate" "log w/s" (num r.log_write_rate);
             col ~key:"commit_latency_ms" "lat ms"
               (num ~digits:1 (r.commit_latency_mean *. 1e3));
             json "feasible" (flag r.feasible);
           ])
         runs)
  in
  add_section "workloads" (J.Obj [ ("rows", J.List rows) ])

let ablation speed =
  let base kind = Paper.base_config ~speed ~kind ~long_pct:5 () in
  let run_policy policy = Experiment.run (base (Experiment.Ephemeral policy)) in
  let sizes = [| 18; 12 |] in
  let default = Policy.default ~generation_sizes:sizes in
  let variants =
    [
      ("paper default (recirc, keep-in-log)", default);
      ("recirculation off", { default with Policy.recirculate = false });
      ( "force-flush at heads",
        { default with Policy.unflushed = Policy.Force_flush } );
      ( "no forwarding backfill",
        { default with Policy.forward_backfill = false } );
      ( "lifetime-hint placement (Sec. 6)",
        { default with Policy.placement = Policy.Lifetime_hint } );
      ( "eager group commit (1 ms timeout)",
        { default with Policy.group_commit_timeout = Some (Time.of_ms 1) } );
    ]
  in
  let variant_runs =
    List.map (fun (name, policy) -> (name, run_policy policy)) variants
  in
  (* flush-scheduling ablation: FIFO instead of nearest-oid *)
  let fifo =
    Experiment.run
      {
        (base (Experiment.Ephemeral default)) with
        Experiment.flush_scheduling = El_disk.Flush_array.Fifo;
        flush_transfer = El_model.Time.of_ms 45;
      }
  in
  let nearest =
    Experiment.run
      {
        (base (Experiment.Ephemeral default)) with
        Experiment.flush_transfer = El_model.Time.of_ms 45;
      }
  in
  ignore
    (table
       (List.map
          (fun (name, (r : Experiment.result)) ->
            [
              col "variant" (text name);
              col "bw (w/s)" (num r.log_write_rate);
              col "kills" (int r.killed);
              col "forced flushes" (int r.forced_flushes);
              col "fwd recs" (int r.forwarded_records);
              col "recirc recs" (int r.recirculated_records);
              col "mem (B)" (int r.peak_memory_bytes);
              col "latency (ms)" (num (r.commit_latency_mean *. 1000.0));
            ])
          (variant_runs
          @ [
              ("45ms flushes, nearest-oid", nearest);
              ("45ms flushes, FIFO (ablation)", fifo);
            ])));
  print_newline ();
  Printf.printf
    "flush locality under scarcity: nearest-oid scheduling drops the mean \n\
     seek to %.0f oids where FIFO stays fully random at %.0f -- the choice \n\
     behind the paper's locality feedback (Sec. 4).\n"
    nearest.Experiment.flush_mean_distance fifo.Experiment.flush_mean_distance

let gens_sweep speed =
  let rows =
    with_alloc "generation_sweep" (fun () ->
        Paper.generation_count_sweep ~pool:!pool ~speed ())
  in
  let rows =
    table
      (List.map
         (fun (r : Paper.gens_row) ->
           [
             col ~key:"generations" "generations" (int r.generations);
             col ~key:"sizes" "best sizes" (sizes r.sizes);
             col ~key:"total" "total blocks" (int r.total);
             col ~key:"bandwidth" "bw (w/s)" (num r.bandwidth);
           ])
         rows)
  in
  print_newline ();
  print_endline
    "Chain length is a space/bandwidth dial: a single ring can be squeezed\n\
     smallest but only by recirculating furiously (~2x the write rate);\n\
     more generations spend a few blocks to cut the rewrite traffic --\n\
     Sec. 6's point that the optimal number and sizes are\n\
     application-dependent.";
  add_section "generation_sweep" (J.Obj [ ("rows", J.List rows) ])

let adaptive_bench speed =
  let cfg =
    {
      (Paper.base_config ~speed ~kind:(Experiment.Firewall 1) ~long_pct:5 ()) with
      Experiment.runtime =
        (match speed with
        | `Full -> El_model.Time.of_sec 120
        | `Quick -> El_model.Time.of_sec 60);
    }
  in
  (* allow at most 25% more log bandwidth than the generous baseline:
     the controller then stops near the paper's knee instead of
     squeezing into the furious-recirculation regime *)
  let outcome =
    El_harness.Adaptive.tune cfg ~initial:[| 30; 60 |] ~bandwidth_slack:1.25 ()
  in
  ignore
    (table
       (List.map
          (fun (s : El_harness.Adaptive.step) ->
            [
              col "epoch" (int s.epoch);
              col "sizes tried" (sizes s.sizes);
              col "healthy"
                (text
                   (if s.healthy then "yes"
                    else if not s.feasible then
                      Printf.sprintf "no (%d kills)" s.killed
                    else "no (bandwidth budget)"));
              col "bw (w/s)" (num s.bandwidth);
            ])
          outcome.El_harness.Adaptive.trajectory));
  Printf.printf
    "\nconverged to %s blocks in %d epochs with no workload model -- the\n\
     'adaptable version of EL that dynamically chooses the sizes itself'\n\
     that Sec. 6 asks for, realised as a shrink-until-pushback controller.\n"
    (plus outcome.El_harness.Adaptive.final_sizes)
    outcome.El_harness.Adaptive.epochs_used

let fw_peak (r : Experiment.result) =
  match r.fw_stats with
  | Some s -> s.El_core.Fw_manager.peak_occupancy
  | None -> 0

let checkpoint_bench speed =
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let runtime =
    match speed with
    | `Full -> El_model.Time.of_sec 300
    | `Quick -> El_model.Time.of_sec 120
  in
  let cfg =
    {
      (Experiment.default_config ~kind:(Experiment.Firewall 512) ~mix) with
      Experiment.runtime = runtime;
    }
  in
  let ideal = Experiment.run cfg in
  let run_ckpt interval_s cost =
    let live =
      Experiment.prepare
        ~checkpointing:
          {
            El_core.Fw_manager.interval = El_model.Time.of_sec interval_s;
            cost_blocks = cost;
          }
        cfg
    in
    ignore (live.Experiment.finish ());
    El_core.Fw_manager.stats (Option.get live.Experiment.fw)
  in
  let seconds = El_model.Time.to_sec_f runtime in
  let row name peak rate checkpoints =
    [
      col "FW variant" (text name);
      col "peak blocks" (int peak);
      col "log writes/s" (num rate);
      col "checkpoints" (int checkpoints);
    ]
  in
  ignore
    (table
       (row "paper's ideal (none)" (fw_peak ideal)
          ideal.Experiment.log_write_rate 0
       :: List.map
            (fun (interval_s, cost) ->
              let s = run_ckpt interval_s cost in
              row
                (Printf.sprintf "every %ds, %d blocks" interval_s cost)
                s.El_core.Fw_manager.peak_occupancy
                (float_of_int s.El_core.Fw_manager.log_writes /. seconds)
                s.El_core.Fw_manager.checkpoints)
            [ (30, 4); (10, 4); (2, 4) ]));
  print_newline ();
  print_endline
    "The paper notes its FW baseline omits checkpointing and that 'this\n\
     omission favors FW'.  Modelled: committed records stay REDO-relevant\n\
     until the next checkpoint, so sparse checkpoints inflate FW's space\n\
     while frequent ones inflate its bandwidth.  EL needs neither."

let poisson_bench speed =
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let runtime =
    match speed with
    | `Full -> El_model.Time.of_sec 300
    | `Quick -> El_model.Time.of_sec 120
  in
  let cfg process =
    {
      (Experiment.default_config ~kind:(Experiment.Firewall 512) ~mix) with
      Experiment.runtime = runtime;
      arrival_process = process;
    }
  in
  let el_cfg process sizes =
    {
      (cfg process) with
      Experiment.kind =
        Experiment.Ephemeral (Policy.default ~generation_sizes:sizes);
    }
  in
  ignore
    (table
       (List.map
          (fun (name, process) ->
            let fw = Experiment.run (cfg process) in
            let el = Experiment.run (el_cfg process [| 18; 16 |]) in
            [
              col "arrivals" (text name);
              col "FW peak blocks" (int (fw_peak fw));
              col "EL 18+16 feasible" (flag el.Experiment.feasible);
              col "EL kills" (int el.Experiment.killed);
            ])
          [
            ("deterministic (paper)", El_workload.Generator.Deterministic);
            ("Poisson", El_workload.Generator.Poisson);
          ]));
  print_newline ();
  print_endline
    "The paper calls its regular arrivals 'sufficient for a first order\n\
     evaluation' and defers probabilistic models.  Under Poisson bursts\n\
     both schemes need a little headroom beyond the deterministic minima."

(* ---- hot-path micro-benchmarks: the structures the O(log n)
   refactor made sub-linear, measured directly ---- *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let hotpath speed =
  let module F = El_disk.Flush_array in
  let module Engine = El_sim.Engine in
  let objects = 1_000_000 in
  (* 1. Flush-backlog dispatch throughput: enqueue B requests on one
     drive, then drain.  Every service is one scheduling pick — O(B)
     under Reference, O(log B) under Indexed — so the drain isolates
     pick cost. *)
  let drain impl backlog =
    let e = Engine.create () in
    let f =
      F.create e ~drives:1 ~transfer_time:(Time.of_us 1) ~num_objects:objects
        ~implementation:impl ()
    in
    F.set_on_flush f (fun _ ~version:_ -> ());
    let x = ref 88172645463325252 in
    for _ = 1 to backlog do
      (* xorshift: deterministic, seed-independent oid stream *)
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      F.request f (Ids.Oid.of_int (abs !x mod objects)) ~version:1
    done;
    let (), secs = wall (fun () -> Engine.run_all e) in
    F.check_invariants f;
    (float_of_int (F.picks f) /. secs, secs)
  in
  let backlogs =
    match speed with
    | `Quick -> [ 1_000; 10_000 ]
    | `Full -> [ 1_000; 10_000; 50_000 ]
  in
  (* 2. Ledger throughput with a large active window: every iteration
     consults oldest_active and live_cells, which the incremental
     indexes serve in O(1) instead of full LOT/LTT walks. *)
  let ledger_ops () =
    let module L = El_core.Ledger in
    let l = L.create ~remove_cell:(fun _ -> ()) () in
    let window = 10_000 in
    let iters = match speed with `Quick -> 30_000 | `Full -> 100_000 in
    let ops = ref 0 in
    let w0 = Gc.minor_words () in
    let (), secs =
      wall (fun () ->
          for i = 0 to iters - 1 do
            let tid = Ids.Tid.of_int i in
            ignore
              (L.begin_tx l ~tid ~expected_duration:(Time.of_sec 1)
                 ~timestamp:(Time.of_us i) ~size:8);
            ignore
              (L.write_data l ~tid
                 ~oid:(Ids.Oid.of_int (i * 7919 mod 500_000))
                 ~version:i ~size:100 ~timestamp:(Time.of_us i));
            ignore (L.oldest_active l);
            ignore (L.live_cells l);
            ops := !ops + 4;
            if i >= window then begin
              let victim = Ids.Tid.of_int (i - window) in
              ignore
                (L.request_commit l ~tid:victim ~timestamp:(Time.of_us i)
                   ~size:8);
              let to_flush = L.commit_durable l ~tid:victim in
              List.iter
                (fun (oid, version) ->
                  ignore (L.flush_complete l ~oid ~version))
                to_flush;
              ops := !ops + 2 + List.length to_flush
            end
          done;
          (* drain the remaining window through the O(1) victim head *)
          let continue = ref true in
          while !continue do
            match L.oldest_active l with
            | None -> continue := false
            | Some e ->
              L.kill l ~tid:e.El_core.Cell.e_tid;
              ops := !ops + 2
          done)
    in
    L.check_invariants l;
    let words_per_op = (Gc.minor_words () -. w0) /. float_of_int !ops in
    (float_of_int !ops /. secs, !ops, words_per_op)
  in
  (* 3. Hybrid long-transaction appends: stub accumulation is O(1)
     amortised (prepend + lazy reverse) where it used to rebuild the
     whole list per record. *)
  let hybrid_append len =
    let e = Engine.create () in
    let flush =
      F.create e ~drives:1 ~transfer_time:(Time.of_us 1) ~num_objects:objects ()
    in
    let stable = El_disk.Stable_db.create ~num_objects:objects in
    let queue = (len * 100 / El_model.Params.block_payload) + 16 in
    let h =
      El_core.Hybrid_manager.create e ~queue_sizes:[| queue |] ~flush ~stable ()
    in
    let tid = Ids.Tid.of_int 1 in
    El_core.Hybrid_manager.begin_tx h ~tid ~expected_duration:(Time.of_sec 10);
    let w0 = Gc.minor_words () in
    let (), secs =
      wall (fun () ->
          for i = 1 to len do
            El_core.Hybrid_manager.write_data h ~tid ~oid:(Ids.Oid.of_int i)
              ~version:i ~size:100
          done)
    in
    let words = (Gc.minor_words () -. w0) /. float_of_int len in
    Engine.run_all e;
    (float_of_int len /. secs, words)
  in
  let lengths =
    match speed with
    | `Quick -> [ 1_000; 5_000 ]
    | `Full -> [ 1_000; 5_000; 20_000 ]
  in
  (* single-shot appends are noisy on a loaded box; keep the best of a
     few repetitions, which is the machine's actual capability *)
  let append_reps = match speed with `Quick -> 2 | `Full -> 5 in
  (* 4. Whole-simulation wall-clock on the scarce-flush scenario (the
     deepest backlog any paper figure builds), Reference vs Indexed,
     with a result-identity check: the elevator must change how fast
     the answer arrives, never the answer. *)
  let scarce_cfg impl =
    {
      (Paper.base_config ~speed
         ~kind:
           (Experiment.Ephemeral (Policy.default ~generation_sizes:[| 24; 7 |]))
         ~long_pct:5 ()) with
      Experiment.flush_transfer = Time.of_ms 45;
      Experiment.flush_impl = impl;
    }
  in
  (* Wall-clock flips sign run-to-run under ±10-20% machine noise, so
     each implementation gets best-of-2 and the regression field below
     carries a generous 1.25x tolerance; the per-transaction
     allocation counts are the tight regression signal. *)
  let run_scarce impl =
    let cfg = scarce_cfg impl in
    let w0 = Gc.minor_words () in
    let r, secs = wall (fun () -> Experiment.run cfg) in
    let words_per_tx =
      (Gc.minor_words () -. w0) /. float_of_int (max 1 r.Experiment.committed)
    in
    (r, secs, words_per_tx)
  in
  let best_of impl =
    let r, secs0, words = run_scarce impl in
    let _, secs1, _ = run_scarce impl in
    (r, Float.min secs0 secs1, words)
  in
  let fields =
    with_alloc "hotpath" (fun () ->
        let dispatch_rows =
          table
            (List.map
               (fun b ->
                 let ref_rate, _ = drain F.Reference b in
                 let idx_rate, _ = drain F.Indexed b in
                 [
                   col ~key:"backlog" "backlog" (int b);
                   col ~key:"reference_picks_per_sec" "Reference picks/s"
                     (num ~digits:0 ref_rate);
                   col ~key:"indexed_picks_per_sec" "Indexed picks/s"
                     (num ~digits:0 idx_rate);
                   col ~key:"speedup" "speedup"
                     (num ~suffix:"x" (idx_rate /. ref_rate));
                 ])
               backlogs)
        in
        print_newline ();
        let ledger_rate, ledger_total, ledger_words = ledger_ops () in
        Printf.printf
          "ledger: %.0f ops/s (%d begin/write/commit/kill ops, 10k-tx active \
           window, %.2f minor words/op)\n\n"
          ledger_rate ledger_total ledger_words;
        let append_rows =
          List.map
            (fun len ->
              (* settle the major collector: the earlier bench stages
                 leave floating garbage whose incremental slices would
                 otherwise be charged to this loop's allocations *)
              Gc.compact ();
              let best = ref 0.0 and words = ref infinity in
              for _ = 1 to append_reps do
                let rate, w = hybrid_append len in
                if rate > !best then best := rate;
                if w < !words then words := w
              done;
              Printf.printf
                "hybrid append: %6d-record tx  %12.0f records/s  %.2f minor \
                 words/record\n"
                len !best !words;
              J.Obj
                [
                  ("records", J.Int len);
                  ("records_per_sec", J.Float !best);
                  ("minor_words_per_record", J.Float !words);
                ])
            lengths
        in
        print_newline ();
        let r_ref, ref_secs, ref_words = best_of F.Reference in
        let r_idx, idx_secs, idx_words = best_of F.Indexed in
        let identical =
          Marshal.to_string r_ref [] = Marshal.to_string r_idx []
        in
        Printf.printf
          "scarce-flush wall-clock: Reference %.3fs (%.0f words/tx), Indexed \
           %.3fs (%.0f words/tx) (results %s)\n"
          ref_secs ref_words idx_secs idx_words
          (if identical then "identical" else "DIVERGED");
        if not identical then
          failwith "hotpath: Reference/Indexed results diverged";
        [
          ("dispatch", J.List dispatch_rows);
          ( "ledger",
            J.Obj
              [
                ("ops_per_sec", J.Float ledger_rate);
                ("ops", J.Int ledger_total);
                ("minor_words_per_op", J.Float ledger_words);
              ] );
          ("hybrid_append", J.List append_rows);
          ( "scarce_wallclock",
            J.Obj
              [
                ("reference_secs", J.Float ref_secs);
                ("indexed_secs", J.Float idx_secs);
                ("reference_words_per_tx", J.Float ref_words);
                ("indexed_words_per_tx", J.Float idx_words);
                ("indexed_not_slower", J.Bool (idx_secs <= 1.25 *. ref_secs));
                ("results_identical", J.Bool identical);
              ] );
        ])
  in
  add_section "hotpath" (J.Obj fields)

(* ---- multi-shard scale-out: oid-range partitions + cross-shard 2PC
   (lib/shard) ---- *)

module Shard_group = El_shard.Shard_group

let shard_cfg ~runtime ~rate ~objects ~drives ~gens ~shards ~seed =
  let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
  let policy = Policy.default ~generation_sizes:gens in
  {
    (Experiment.default_config ~kind:(Experiment.Ephemeral policy) ~mix) with
    Experiment.arrival_rate = rate;
    runtime = Time.of_sec_f runtime;
    flush_drives = drives;
    num_objects = objects;
    seed;
    shards;
  }

let shard_row cfg =
  let t0 = Unix.gettimeofday () in
  let rr = Shard_group.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let shard_committed =
    Array.map (fun (s : Shard_group.shard_stat) -> s.Shard_group.ss_committed)
      rr.Shard_group.r_shards
  in
  let sum = Array.fold_left ( + ) 0 shard_committed in
  (* Commit conservation is the sharding correctness anchor CI pins on
     the emitted JSON: every acknowledged transaction commits on
     exactly one shard (its own, or its 2PC coordinator). *)
  if sum <> rr.Shard_group.r_global.Experiment.committed then
    failwith
      (Printf.sprintf
         "shard bench: per-shard commits (%d) do not sum to global (%d)" sum
         rr.Shard_group.r_global.Experiment.committed);
  (rr, shard_committed, wall)

let shards_bench speed =
  let runtime = match speed with `Full -> 300.0 | `Quick -> 60.0 in
  let counts = [ 1; 2; 4 ] in
  let sweep_row n =
    shard_row
      (shard_cfg ~runtime ~rate:150.0 ~objects:100_000 ~drives:16
         ~gens:[| 64; 48 |] ~shards:n ~seed:42)
  in
  let rows =
    with_alloc "shards" (fun () -> List.map (fun n -> (n, sweep_row n)) counts)
  in
  let sweep =
    table
      (List.map
         (fun (n, ((rr : Shard_group.run_result), sc, wall)) ->
           [
             col ~key:"shards" "shards" (int n);
             col ~key:"committed" "committed"
               (int rr.r_global.Experiment.committed);
             col ~key:"single_committed" "singles" (int rr.r_single_committed);
             col ~key:"cross_committed" "2pc commits"
               (int rr.r_cross_committed);
             col ~key:"prepares" "prepares" (int rr.r_prepares);
             col ~key:"blocked" "blocked" (int rr.r_blocked);
             col ~key:"shard_committed" "per-shard commits" (sizes sc);
             col ~key:"log_write_rate" "log w/s"
               (num rr.r_global.Experiment.log_write_rate);
             col ~key:"wall_s" "wall s" (num wall);
           ])
         rows)
  in
  print_newline ();
  print_endline
    "Fixed load split across N plants: every acknowledged transaction\n\
     commits on exactly one shard, cross-shard transactions pay one\n\
     PREPARE marker per branch plus a decision record on their\n\
     coordinator.";
  (* The scale headline: a million-object database on four plants.
     The measured run commits what the simulated runtime admits; the
     10^7-transaction figure is a labelled extrapolation from the
     measured wall-clock per committed transaction, not a measured
     run. *)
  let h_rate, h_runtime =
    match speed with `Full -> (2000.0, 300.0) | `Quick -> (1000.0, 60.0)
  in
  let h_cfg =
    shard_cfg ~runtime:h_runtime ~rate:h_rate ~objects:1_000_000 ~drives:128
      ~gens:[| 320; 256 |] ~shards:4 ~seed:42
  in
  let hr, h_shard_committed, h_wall =
    with_alloc "shards.headline" (fun () -> shard_row h_cfg)
  in
  let h_committed = hr.Shard_group.r_global.Experiment.committed in
  let target_tx = 10_000_000 in
  let headline =
    metrics
      [
        col ~key:"objects" "objects" (int ~text:"1,000,000" 1_000_000);
        col ~key:"shards" "shards" (int 4);
        col ~key:"committed" "committed (measured)" (int h_committed);
        col ~key:"cross_committed" "cross-shard commits"
          (int hr.Shard_group.r_cross_committed);
        json "shard_committed" (sizes h_shard_committed);
        col ~key:"updates_per_sec" "updates/s"
          (num hr.Shard_group.r_global.Experiment.updates_per_sec);
        col ~key:"wall_s" "wall s (measured)" (num h_wall);
        json "target_tx" (int target_tx);
        col ~key:"extrapolated_wall_s_to_target"
          "wall s to 10^7 tx (extrapolated)"
          (num
             (h_wall
             *. (float_of_int target_tx /. float_of_int (max 1 h_committed))));
        json "extrapolated" (flag true);
      ]
  in
  add_section "shards"
    (J.Obj
       [
         ("sweep", J.List sweep);
         ("headline", J.Obj headline);
       ])

(* ---- Bechamel micro-benchmarks: one Test.make per figure/table plus
   the core data structures ---- *)

let micro _speed =
  let open Bechamel in
  let open Toolkit in
  let short_sim kind =
    Staged.stage (fun () ->
        let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
        let cfg =
          {
            (Experiment.default_config ~kind ~mix) with
            Experiment.runtime = El_model.Time.of_sec 5;
          }
        in
        ignore (Experiment.run cfg))
  in
  let test_fig4_fw =
    Test.make ~name:"fig4/5/6: FW 5s sim (123 blocks)"
      (short_sim (Experiment.Firewall 123))
  in
  let test_fig4_el =
    Test.make ~name:"fig4/5/6: EL 5s sim (18+16, no recirc)"
      (short_sim
         (Experiment.Ephemeral
            {
              (Policy.default ~generation_sizes:[| 18; 16 |]) with
              Policy.recirculate = false;
            }))
  in
  let test_fig7 =
    Test.make ~name:"fig7/headline: EL 5s sim (18+10, recirc)"
      (short_sim
         (Experiment.Ephemeral (Policy.default ~generation_sizes:[| 18; 10 |])))
  in
  let test_scarce =
    Test.make ~name:"scarce: EL 5s sim (45 ms flushes)"
      (Staged.stage (fun () ->
           let mix = El_workload.Mix.short_long ~long_fraction:0.05 in
           let cfg =
             {
               (Experiment.default_config
                  ~kind:
                    (Experiment.Ephemeral
                       (Policy.default ~generation_sizes:[| 20; 11 |]))
                  ~mix) with
               Experiment.runtime = El_model.Time.of_sec 5;
               Experiment.flush_transfer = El_model.Time.of_ms 45;
             }
           in
           ignore (Experiment.run cfg)))
  in
  let test_event_queue =
    Test.make ~name:"event queue: 1k push+pop"
      (Staged.stage (fun () ->
           let q = El_sim.Event_queue.create () in
           for i = 0 to 999 do
             El_sim.Event_queue.push q ~time:(i * 7919 mod 1000) i
           done;
           while not (El_sim.Event_queue.is_empty q) do
             ignore (El_sim.Event_queue.pop q)
           done))
  in
  let test_recovery =
    Test.make ~name:"recovery: single pass over a crash image"
      (Staged.stage
         (let policy = Policy.default ~generation_sizes:[| 18; 12 |] in
          let cfg =
            {
              (Experiment.default_config
                 ~kind:(Experiment.Ephemeral policy)
                 ~mix:(El_workload.Mix.short_long ~long_fraction:0.05)) with
              Experiment.runtime = El_model.Time.of_sec 60;
            }
          in
          let live = Experiment.prepare cfg in
          El_sim.Engine.run live.Experiment.engine ~until:(El_model.Time.of_sec 45);
          let image =
            El_recovery.Recovery.crash live.Experiment.engine
              (Option.get live.Experiment.el)
          in
          fun () -> ignore (El_recovery.Recovery.recover image)))
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:None () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-45s %12.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-45s (no estimate)\n%!" name)
        results)
    [
      test_fig4_fw;
      test_fig4_el;
      test_fig7;
      test_scarce;
      test_event_queue;
      test_recovery;
    ]

(* ---- the section table: selectors, --help and run order ---- *)

let sections : (string * string * (Paper.speed -> unit)) list =
  [
    ("fig4", "Figure 4: minimum disk space (blocks) vs transaction mix", fig4);
    ( "fig5",
      "Figure 5: log disk bandwidth (block writes/s) vs transaction mix",
      fig5 );
    ( "fig6",
      "Figure 6: main-memory requirements (bytes) vs transaction mix",
      fig6 );
    ("rates", "In-text: database update rate vs transaction mix", rates);
    ( "fig7",
      "Figure 7: EL bandwidth vs disk space (recirculation on, 5% mix, gen 0 \
       fixed)",
      fig7 );
    ( "headline",
      "In-text headline (5% mix): EL with recirculation vs FW",
      headline );
    ( "scarce",
      "In-text: scarce flushing bandwidth (10 drives x 45 ms = 222/s)",
      scarce );
    ( "recovery",
      "Recovery (beyond the paper: it argues small log => fast recovery)",
      recovery_bench );
    ( "store",
      "Durable store: mem vs file backends on the real-bytes path",
      store_bench );
    ( "workloads",
      "Adversarial workload presets (EL, standard check geometry)",
      workloads_bench );
    ( "ablation",
      "Ablations of EL design choices (5% mix, 18+12 blocks)",
      ablation );
    ( "gens",
      "Beyond the paper: minimum disk space vs number of generations (5% mix)",
      gens_sweep );
    ( "adaptive",
      "Beyond the paper: adaptive generation sizing (the Sec. 6 wish)",
      adaptive_bench );
    ( "checkpoint",
      "Beyond the paper: what ignoring FW's checkpoints hides (5% mix)",
      checkpoint_bench );
    ( "poisson",
      "Beyond the paper: deterministic vs Poisson arrivals (5% mix)",
      poisson_bench );
    ( "hotpath",
      "Hot-path micro-benchmarks (flush dispatch, ledger indexes, appends)",
      hotpath );
    ( "shards",
      "Multi-shard scale-out: oid-range partitions with cross-shard 2PC",
      shards_bench );
    ( "micro",
      "Bechamel micro-benchmarks (simulator and data structures)",
      micro );
  ]

let main quick jobs json_path selectors =
  pool := El_par.Pool.create ~jobs;
  at_exit (fun () -> El_par.Pool.shutdown !pool);
  let speed : Paper.speed = if quick then `Quick else `Full in
  Printf.printf
    "Ephemeral Logging (Keen & Dally, SIGMOD 1993) -- evaluation reproduction\n";
  Printf.printf "mode: %s, %s\n"
    (match speed with
    | `Full -> "full (500s simulated runs, paper parameters)"
    | `Quick -> "quick (120s simulated runs)")
    (if jobs = 1 then "serial" else Printf.sprintf "%d jobs" jobs);
  List.iter
    (fun (name, title, run) ->
      if selectors = [] || List.mem name selectors then begin
        Printf.printf "\n==== %s ====\n\n" title;
        run speed
      end)
    sections;
  match json_path with
  | None -> ()
  | Some path ->
    let doc =
      J.Obj
        [
          ("schema", J.String "el-bench/1");
          ( "mode",
            J.String (match speed with `Full -> "full" | `Quick -> "quick") );
          ("jobs", J.Int jobs);
          ( "selectors",
            J.List
              (List.map
                 (fun s -> J.String s)
                 (if selectors = [] then [ "all" ] else selectors)) );
          ("sections", J.Obj !json_sections);
          ("alloc", J.Obj !json_alloc);
        ]
    in
    let oc = open_out path in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n" path

let () =
  let open Cmdliner in
  let selectors =
    let names = List.map (fun (name, _, _) -> (name, name)) sections in
    let doc =
      "Sections to run, in table order; all of them when none is given."
    in
    Arg.(value & pos_all (enum names) [] & info [] ~doc ~docv:"SECTION")
  in
  let quick =
    let doc =
      "Shorten the simulated runs (120 s instead of the paper's 500 s) and \
       coarsen the sweeps."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let jobs =
    let doc =
      "Run the independent simulations of each sweep on $(docv) domains \
       (default 1 = serial; tables and JSON are identical either way)."
    in
    let positive =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg ("bad --jobs count: " ^ s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(value & opt positive 1 & info [ "jobs" ] ~doc ~docv:"N")
  in
  let json =
    let doc =
      "Write an el-bench/1 JSON summary of every section that ran to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"PATH")
  in
  let man =
    `S "SECTIONS"
    :: List.map (fun (name, title, _) -> `I (name, title)) sections
  in
  let info =
    Cmd.info "main.exe" ~man
      ~doc:"Reproduce the paper's evaluation and the beyond-the-paper benches"
  in
  exit
    (Cmd.eval ~catch:false
       (Cmd.v info Term.(const main $ quick $ jobs $ json $ selectors)))
