(* The durable block store: backend units, the checksummed segment
   codec, log-store scan semantics, and the headline equivalence the
   subsystem exists for — the same seeded run recovers byte-identical
   committed state whether its blocks went through the in-memory
   backend, a real disk image, or (modulo store counters) no store at
   all. *)

open El_model
module Backend = El_store.Backend
module Codec = El_store.Codec
module Log_store = El_store.Log_store
module Experiment = El_harness.Experiment
module Recovery = El_recovery.Recovery
module Sweep = El_check.Sweep

let with_temp_dir f =
  let dir = Filename.temp_file "el_store_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let with_file_backend f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "disk.img" in
      let b = Backend.file ~path in
      Fun.protect ~finally:(fun () -> Backend.close b) (fun () -> f b path))

(* ---- backends ---- *)

let test_mem_roundtrip () =
  let b = Backend.mem () in
  Backend.pwrite b ~off:0 (Bytes.of_string "hello");
  Backend.pwrite b ~off:10_000 (Bytes.of_string "world");
  Alcotest.(check string)
    "read back" "hello"
    (Bytes.to_string (Backend.pread b ~off:0 ~len:5));
  Alcotest.(check string)
    "read past growth" "world"
    (Bytes.to_string (Backend.pread b ~off:10_000 ~len:5));
  (* the gap is zero-filled, not garbage *)
  Alcotest.(check string)
    "gap zeroed"
    (String.make 8 '\000')
    (Bytes.to_string (Backend.pread b ~off:100 ~len:8));
  Alcotest.(check int) "size" 10_005 (Backend.size b);
  Backend.barrier b;
  let c = Backend.counters b in
  Alcotest.(check int) "pwrites" 2 c.Backend.pwrites;
  Alcotest.(check int) "barriers" 1 c.Backend.barriers;
  Alcotest.(check int) "bytes" 10 c.Backend.bytes_written

let test_file_persists () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "disk.img" in
      let b = Backend.file ~path in
      Backend.pwrite b ~off:0 (Bytes.of_string "durable");
      Backend.barrier b;
      Backend.close b;
      let b2 = Backend.file ~path in
      Alcotest.(check string)
        "reopened read" "durable"
        (Bytes.to_string (Backend.pread b2 ~off:0 ~len:7));
      Backend.close b2)

let test_mem_file_byte_equal () =
  with_file_backend (fun fb _path ->
      let mb = Backend.mem () in
      let writes = [ (0, "aaaa"); (100, "bb"); (37, "cccc"); (90, "dd") ] in
      List.iter
        (fun (off, s) ->
          Backend.pwrite mb ~off (Bytes.of_string s);
          Backend.pwrite fb ~off (Bytes.of_string s))
        writes;
      Alcotest.(check int) "sizes agree" (Backend.size mb) (Backend.size fb);
      let len = Backend.size mb in
      Alcotest.(check string)
        "images byte-identical"
        (Bytes.to_string (Backend.pread mb ~off:0 ~len))
        (Bytes.to_string (Backend.pread fb ~off:0 ~len)))

let test_use_after_close () =
  let b = Backend.mem () in
  Backend.close b;
  Alcotest.check_raises "pwrite after close"
    (Invalid_argument "El_store.Backend: use after close") (fun () ->
      Backend.pwrite b ~off:0 (Bytes.of_string "x"))

(* ---- codec ---- *)

let sample_records =
  [
    Log_record.begin_ ~tid:(Ids.Tid.of_int 7) ~size:8
      ~timestamp:(Time.of_us 123);
    Log_record.data ~tid:(Ids.Tid.of_int 7) ~oid:(Ids.Oid.of_int 42)
      ~version:3 ~size:100 ~timestamp:(Time.of_us 456);
    Log_record.commit ~tid:(Ids.Tid.of_int 7) ~size:8
      ~timestamp:(Time.of_us 789);
    Log_record.abort ~tid:(Ids.Tid.of_int 9) ~size:8
      ~timestamp:(Time.of_us 1000);
  ]

let test_codec_roundtrip () =
  List.iter
    (fun r ->
      let b = Codec.encode_entry (Codec.Record r) in
      Alcotest.(check int) "entry size" Codec.entry_bytes (Bytes.length b);
      match Codec.decode_entry b ~pos:0 with
      | Some (Codec.Record r') ->
        Alcotest.(check bool) "roundtrip" true (r = r')
      | Some (Codec.Stable _) | None -> Alcotest.fail "decode failed")
    sample_records;
  let st = Codec.Stable { oid = Ids.Oid.of_int 99; version = 12 } in
  match Codec.decode_entry (Codec.encode_entry st) ~pos:0 with
  | Some (Codec.Stable { oid; version }) ->
    Alcotest.(check int) "stable oid" 99 (Ids.Oid.to_int oid);
    Alcotest.(check int) "stable version" 12 version
  | Some (Codec.Record _) | None -> Alcotest.fail "stable decode failed"

let test_codec_corruption () =
  let r = List.hd sample_records in
  let b = Codec.encode_entry ~corrupt:true (Codec.Record r) in
  Alcotest.(check bool)
    "corrupt entry rejected" true
    (Codec.decode_entry b ~pos:0 = None);
  let good = Codec.encode_entry (Codec.Record r) in
  (* flipping any payload byte must invalidate the checksum *)
  Bytes.set good 9 (Char.chr (Char.code (Bytes.get good 9) lxor 0x40));
  Alcotest.(check bool)
    "bit flip rejected" true
    (Codec.decode_entry good ~pos:0 = None)

let test_header_roundtrip () =
  let h =
    { Codec.h_epoch = 2; h_gen = 1; h_slot = 5; h_seq = 17; h_count = 3 }
  in
  let b = Codec.encode_header h in
  Alcotest.(check int) "header size" Codec.header_bytes (Bytes.length b);
  (match Codec.decode_header b ~pos:0 with
  | Some h' -> Alcotest.(check bool) "roundtrip" true (h = h')
  | None -> Alcotest.fail "header decode failed");
  Bytes.set b 0 'X';
  Alcotest.(check bool)
    "bad magic rejected" true
    (Codec.decode_header b ~pos:0 = None)

(* ---- log store ---- *)

let records_of n base =
  List.init n (fun i ->
      Log_record.data
        ~tid:(Ids.Tid.of_int (base + i))
        ~oid:(Ids.Oid.of_int (base + i))
        ~version:(i + 1) ~size:10
        ~timestamp:(Time.of_us (base + i)))

let test_store_scan_dedup () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 100);
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 2 200);
  (* slot 0 is reused: only the newer segment may survive the scan *)
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 4 300);
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 5) ~version:2;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 5) ~version:7;
  let s = Log_store.scan b in
  Alcotest.(check int) "segments written" 5 s.Log_store.s_segments;
  Alcotest.(check int) "stale blocks" 1 s.Log_store.s_stale_blocks;
  Alcotest.(check bool) "no torn tail" false s.Log_store.s_torn_tail;
  let live =
    List.filter (fun bl -> bl.Log_store.sb_gen >= 0) s.Log_store.s_blocks
  in
  Alcotest.(check int) "live blocks" 2 (List.length live);
  let slot0 =
    List.find (fun bl -> bl.Log_store.sb_slot = 0) live
  in
  Alcotest.(check int)
    "newest wins slot 0" 4
    (List.length slot0.Log_store.sb_records);
  Alcotest.(check bool)
    "stable facts kept in image order" true
    (s.Log_store.s_stable = [| (Ids.Oid.of_int 5, 2); (Ids.Oid.of_int 5, 7) |]);
  let db, dropped =
    El_disk.Stable_db.of_facts ~num_objects:100 s.Log_store.s_stable
  in
  Alcotest.(check (option int))
    "of_facts keeps the max version" (Some 7)
    (El_disk.Stable_db.version db (Ids.Oid.of_int 5));
  Alcotest.(check int) "nothing dropped" 0 dropped

let test_store_torn_suffix () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 ~torn_suffix:2 (records_of 5 0);
  let s = Log_store.scan b in
  let bl = List.hd s.Log_store.s_blocks in
  Alcotest.(check int) "valid prefix" 3 (List.length bl.Log_store.sb_records);
  Alcotest.(check int) "discarded" 2 bl.Log_store.sb_discarded;
  (* a stable segment is cut the same way: nothing after its first bad
     entry is a fact, even an entry whose checksum holds *)
  let fact ?corrupt oid =
    Codec.encode_entry ?corrupt
      (Codec.Stable { oid = Ids.Oid.of_int oid; version = 1 })
  in
  Backend.pwrite b ~off:(Backend.size b)
    (Bytes.concat Bytes.empty
       [
         Codec.encode_header
           { Codec.h_epoch = 0; h_gen = -1; h_slot = 0; h_seq = 1; h_count = 3 };
         fact 4; fact ~corrupt:true 5; fact 6;
       ]);
  Alcotest.(check bool) "stable facts cut at the bad entry" true
    ((Log_store.scan b).Log_store.s_stable = [| (Ids.Oid.of_int 4, 1) |])

let test_store_upto () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 2 0);
  let mark = Log_store.position t in
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 3 50);
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 1) ~version:9;
  let s = Log_store.scan ~upto:mark b in
  Alcotest.(check int) "blocks before mark" 1 (List.length s.Log_store.s_blocks);
  Alcotest.(check bool) "stable after mark excluded" true
    (s.Log_store.s_stable = [||]);
  let full = Log_store.scan b in
  Alcotest.(check int) "full scan sees all" 2 (List.length full.Log_store.s_blocks)

let test_attach_epochs () =
  with_file_backend (fun b _path ->
      let t0 = Log_store.create b in
      Log_store.append_block t0 ~gen:0 ~slot:0 (records_of 2 0);
      let t1 = Log_store.attach b in
      (* the new epoch's reuse of slot 0 must NOT shadow epoch 0's block *)
      Log_store.append_block t1 ~gen:0 ~slot:0 (records_of 3 10);
      let s = Log_store.scan b in
      Alcotest.(check int) "both epochs' blocks survive" 2
        (List.length s.Log_store.s_blocks);
      Alcotest.(check int) "epoch advanced" 1 s.Log_store.s_max_epoch)

(* The torn-tail negative of the issue: truncate a real image
   mid-record and recovery must discard exactly the torn suffix. *)
let test_truncated_image () =
  with_file_backend (fun b _path ->
      let t = Log_store.create b in
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 5 0);
      let whole = Backend.size b in
      (* keep the header, 3 complete entries and half of the 4th *)
      let keep =
        Codec.header_bytes + (3 * Codec.entry_bytes) + (Codec.entry_bytes / 2)
      in
      Alcotest.(check bool) "truncation is proper" true (keep < whole);
      Backend.truncate b ~len:keep;
      let s = Log_store.scan b in
      Alcotest.(check bool) "torn tail detected" true s.Log_store.s_torn_tail;
      let bl = List.hd s.Log_store.s_blocks in
      Alcotest.(check int)
        "exactly the complete prefix survives" 3
        (List.length bl.Log_store.sb_records);
      Alcotest.(check int) "exactly the suffix discarded" 2
        bl.Log_store.sb_discarded;
      let r = Recovery.recover_store ~num_objects:100 b in
      Alcotest.(check int) "torn records counted" 2
        r.Recovery.torn_records;
      (* attach truncates the torn tail away; a rescan is clean *)
      let t2 = Log_store.attach b in
      ignore t2;
      let s2 = Log_store.scan b in
      Alcotest.(check bool) "attach cleaned the tail" false
        s2.Log_store.s_torn_tail)

(* ---- backend equivalence ---- *)

let recovered_state (cfg : Experiment.config) =
  let live = Experiment.prepare cfg in
  let result = live.Experiment.finish () in
  let store = Option.get live.Experiment.store in
  let r =
    Recovery.recover_store ~num_objects:cfg.Experiment.num_objects
      (Log_store.backend store)
  in
  let state =
    ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
      List.sort compare r.Recovery.committed_tids,
      r.Recovery.records_scanned,
      r.Recovery.torn_blocks,
      r.Recovery.torn_records )
  in
  Experiment.dispose live;
  (result, state)

let neutral_result (r : Experiment.result) =
  {
    r with
    Experiment.backend_name = "";
    store_pwrites = 0;
    store_barriers = 0;
    store_bytes_written = 0;
  }

let test_mem_file_equivalence () =
  with_temp_dir (fun dir ->
      List.iter
        (fun (name, kind) ->
          List.iter
            (fun seed ->
              let cfg backend =
                {
                  (Sweep.standard_config ~kind ~runtime:(Time.of_sec 6)
                     ~rate:30.0 ~seed ())
                  with
                  Experiment.backend;
                }
              in
              let rm, sm = recovered_state (cfg Experiment.Mem_store) in
              let rf, sf =
                recovered_state (cfg (Experiment.File_store dir))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s seed %d: recovered state identical" name
                   seed)
                (Marshal.to_string sm [])
                (Marshal.to_string sf []);
              Alcotest.(check string)
                (Printf.sprintf
                   "%s seed %d: run results identical modulo backend name"
                   name seed)
                (Marshal.to_string
                   { (neutral_result rm) with Experiment.backend_name = "" }
                   [])
                (Marshal.to_string
                   { (neutral_result rf) with Experiment.backend_name = "" }
                   []))
            [ 1; 2; 3 ])
        (Sweep.standard_kinds ()))

let test_sim_mem_result_identity () =
  List.iter
    (fun (name, kind) ->
      let cfg backend =
        {
          (Sweep.standard_config ~kind ~runtime:(Time.of_sec 6) ~rate:30.0
             ~seed:5 ())
          with
          Experiment.backend;
        }
      in
      let r_sim = Experiment.run (cfg Experiment.Sim) in
      let r_mem = Experiment.run (cfg Experiment.Mem_store) in
      Alcotest.(check string)
        (name ^ ": store side effects never perturb the simulation")
        (Marshal.to_string (neutral_result r_sim) [])
        (Marshal.to_string (neutral_result r_mem) []))
    (Sweep.standard_kinds ())

(* ---- crash-mark fidelity ---- *)

(* A mid-run crash with torn log writes: the simulated crash image and
   the frozen store image must recover the same committed state and
   the same torn damage.  (redo_applied/skipped are scan-order
   dependent and deliberately not compared.) *)
let test_crash_mark_fidelity () =
  let module FP = El_fault.Fault_plan in
  List.iter
    (fun seed ->
      let kind =
        Experiment.Ephemeral
          (El_core.Policy.default ~generation_sizes:[| 8; 8 |])
      in
      let cfg =
        {
          (Sweep.standard_config ~kind ~runtime:(Time.of_sec 8) ~rate:40.0
             ~seed ())
          with
          Experiment.backend = Experiment.Mem_store;
          fault =
            FP.make ~seed
              ~log_spec:{ FP.clean_spec with FP.torn_rate = 0.3 }
              ~log_gens:2 ~flush_drives:2 ();
        }
      in
      let _result, sim, audit, store =
        Experiment.run_with_crash_store cfg ~crash_at:(Time.of_sec 6)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: simulated recovery audits clean" seed)
        true audit.Recovery.ok;
      match store with
      | None -> Alcotest.fail "store recovery missing"
      | Some st ->
        let view (r : Recovery.result) =
          ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
            List.sort compare r.Recovery.committed_tids,
            r.Recovery.torn_blocks,
            r.Recovery.torn_records,
            r.Recovery.records_scanned )
        in
        Alcotest.(check string)
          (Printf.sprintf "seed %d: store replay matches simulated crash" seed)
          (Marshal.to_string (view sim) [])
          (Marshal.to_string (view st) []))
    [ 1; 2; 3 ]

(* Grouped sync must change barrier counts only: the same appends end
   in a byte-identical image once the final [sync] lands, with one
   barrier for the batch instead of one per segment. *)
let test_grouped_sync_bytes_identical () =
  let run sync_mode =
    let b = Backend.mem () in
    let t = Log_store.create ~sync_mode b in
    Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
    Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 50);
    Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:3;
    Log_store.sync t;
    let size = Backend.size b in
    ( Bytes.to_string (Backend.pread b ~off:0 ~len:size),
      (Backend.counters b).Backend.barriers,
      Log_store.group_syncs t )
  in
  let bytes_i, barriers_i, gs_i = run Log_store.Immediate in
  let bytes_g, barriers_g, gs_g = run Log_store.Grouped in
  Alcotest.(check string) "images byte-identical" bytes_i bytes_g;
  Alcotest.(check int) "immediate: a barrier per segment" 3 barriers_i;
  Alcotest.(check int) "grouped: one barrier for the batch" 1 barriers_g;
  Alcotest.(check int) "immediate: sync finds nothing dirty" 0 gs_i;
  Alcotest.(check int) "grouped: one sync wave" 1 gs_g

(* request_group_sync coalesces: many requests in one settle wave
   schedule one callback, and a clean store schedules nothing. *)
let test_group_sync_coalesces () =
  let b = Backend.mem () in
  let t = Log_store.create ~sync_mode:Log_store.Grouped b in
  let pending = ref [] in
  let schedule k = pending := k :: !pending in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 1 0);
  Log_store.request_group_sync t ~schedule;
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 1 10);
  Log_store.request_group_sync t ~schedule;
  Alcotest.(check int) "second request coalesced" 1 (List.length !pending);
  List.iter (fun k -> k ()) !pending;
  Alcotest.(check int) "one barrier covers both segments" 1
    (Backend.counters b).Backend.barriers;
  Alcotest.(check bool) "store clean after the wave" false (Log_store.dirty t);
  pending := [];
  Log_store.request_group_sync t ~schedule;
  Alcotest.(check int) "clean store schedules nothing" 0
    (List.length !pending);
  (* leaving Grouped mode flushes rather than stranding dirty bytes *)
  Log_store.append_block t ~gen:0 ~slot:2 (records_of 1 20);
  Log_store.set_sync_mode t Log_store.Immediate;
  Alcotest.(check bool) "mode switch drains dirtiness" false
    (Log_store.dirty t);
  Alcotest.(check int) "mode switch issued the barrier" 2
    (Backend.counters b).Backend.barriers

(* ---- crash injection inside the write path ---- *)

(* A pwrite that tears mid-flight: the device keeps a byte prefix of
   the segment and dies.  The scan must trust exactly the valid
   record prefix, post-mortem writes must be lost, and [attach] must
   cut the image back to a clean state. *)
let test_write_fault_torn_segment () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 4 100);
  (* arm: the next pwrite lands whole, the one after keeps the header,
     two entries and half of the third, then the device dies *)
  let tears = ref 0 in
  let keep =
    Codec.header_bytes + (2 * Codec.entry_bytes) + (Codec.entry_bytes / 2)
  in
  Backend.set_write_fault
    ~on_tear:(fun () -> incr tears)
    b ~after_pwrites:1 ~keep_bytes:keep;
  Log_store.append_block t ~gen:1 ~slot:0 (records_of 2 200);
  Alcotest.(check bool) "unfaulted write landed" false (Backend.dead b);
  Log_store.append_block t ~gen:1 ~slot:1 (records_of 4 300);
  Alcotest.(check int) "tear fired once" 1 !tears;
  Alcotest.(check bool) "device dead" true (Backend.dead b);
  let size_at_death = Backend.size b in
  (* writes into a dead device are silently lost *)
  Log_store.append_block t ~gen:2 ~slot:0 (records_of 2 400);
  Alcotest.(check int) "post-mortem write lost" size_at_death (Backend.size b);
  Backend.revive b;
  let s = Log_store.scan b in
  Alcotest.(check bool) "torn tail detected" true s.Log_store.s_torn_tail;
  let torn =
    List.find
      (fun bl -> bl.Log_store.sb_gen = 1 && bl.Log_store.sb_slot = 1)
      s.Log_store.s_blocks
  in
  Alcotest.(check int) "valid prefix survives the scan" 2
    (List.length torn.Log_store.sb_records);
  Alcotest.(check int) "torn suffix discarded" 2 torn.Log_store.sb_discarded;
  Alcotest.(check int) "every segment visible pre-attach" 4
    (List.length s.Log_store.s_blocks);
  (* replay trusts exactly the record-level valid prefix *)
  let r = Recovery.recover_store ~num_objects:1_000 b in
  Alcotest.(check int) "replay counts the torn records" 2
    r.Recovery.torn_records;
  (* attach cuts the image back to the last complete segment; the
     rescan is clean and the new epoch appends after the cut *)
  let t2 = Log_store.attach b in
  Log_store.append_block t2 ~gen:2 ~slot:0 (records_of 1 500);
  let s2 = Log_store.scan b in
  Alcotest.(check bool) "attach cleaned the tail" false
    s2.Log_store.s_torn_tail;
  Alcotest.(check int) "full segments + new epoch's block survive" 4
    (List.length s2.Log_store.s_blocks)

let el_small_kind () =
  Experiment.Ephemeral (El_core.Policy.default ~generation_sizes:[| 8; 8 |])

let write_fault_cfg ~seed =
  {
    (Sweep.standard_config ~kind:(el_small_kind ()) ~runtime:(Time.of_sec 8)
       ~rate:40.0 ~seed ())
    with
    Experiment.backend = Experiment.Mem_store;
  }

let recovery_view (r : Recovery.result) =
  ( List.sort compare (El_disk.Stable_db.snapshot r.Recovery.recovered),
    List.sort compare r.Recovery.committed_tids,
    r.Recovery.records_scanned,
    r.Recovery.out_of_range,
    r.Recovery.torn_blocks,
    r.Recovery.torn_records )

(* Counts the store pwrites of a pristine run of [cfg], so the fault
   tests can arm the device to die in the middle of the same run. *)
let pristine_pwrites cfg =
  let live = Experiment.prepare cfg in
  ignore (live.Experiment.finish ());
  let store = Option.get live.Experiment.store in
  let n = (Backend.counters (Log_store.backend store)).Backend.pwrites in
  Experiment.dispose live;
  n

(* Device dies mid-run with the fatal pwrite landing whole: the sim
   crash image captured at the tear instant and the surviving store
   image describe the same crash, so replay must agree exactly with
   simulated recovery. *)
let test_write_fault_replay_agrees () =
  List.iter
    (fun seed ->
      let cfg = write_fault_cfg ~seed in
      let total = pristine_pwrites cfg in
      Alcotest.(check bool) "run writes enough segments" true (total > 4);
      let live = Experiment.prepare cfg in
      let store = Option.get live.Experiment.store in
      let b = Log_store.backend store in
      let image = ref None in
      Backend.set_write_fault
        ~on_tear:(fun () ->
          image :=
            Some
              (Recovery.crash live.Experiment.engine
                 (Option.get live.Experiment.el)))
        b
        ~after_pwrites:(total / 2)
        ~keep_bytes:max_int;
      ignore (live.Experiment.finish ());
      let sim =
        match !image with
        | Some i -> Recovery.recover i
        | None -> Alcotest.fail "fault never fired"
      in
      let st =
        Recovery.recover_store ~num_objects:cfg.Experiment.num_objects b
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: store replay = simulated recovery" seed)
        (Marshal.to_string (recovery_view sim) [])
        (Marshal.to_string (recovery_view st) []);
      Experiment.dispose live)
    [ 1; 2; 3 ]

(* Device dies tearing the fatal segment mid-entry: the store image is
   a strict prefix of the simulated crash state.  Everything the
   truncated image recovers must be durable in the simulated image,
   the torn tail must be counted, and [attach] must cut back to the
   valid prefix. *)
let test_write_fault_torn_prefix () =
  List.iter
    (fun seed ->
      let cfg = write_fault_cfg ~seed in
      let total = pristine_pwrites cfg in
      (* most pwrites are one-entry stable installs, which tear
         without discarding log records; probe forward from the
         midpoint until the fatal pwrite is a log segment *)
      let rec tear_log_segment k =
        if k > 40 then
          Alcotest.fail
            (Printf.sprintf "seed %d: no log segment near the midpoint" seed)
        else begin
          let live = Experiment.prepare cfg in
          let store = Option.get live.Experiment.store in
          let b = Log_store.backend store in
          let image = ref None in
          Backend.set_write_fault
            ~on_tear:(fun () ->
              image :=
                Some
                  (Recovery.crash live.Experiment.engine
                     (Option.get live.Experiment.el)))
            b
            ~after_pwrites:((total / 2) + k)
            ~keep_bytes:(Codec.header_bytes + (Codec.entry_bytes / 2));
          ignore (live.Experiment.finish ());
          let s = Log_store.scan b in
          let torn_log =
            List.exists
              (fun bl -> bl.Log_store.sb_discarded > 0)
              s.Log_store.s_blocks
          in
          if torn_log then (live, b, !image, s)
          else begin
            Experiment.dispose live;
            tear_log_segment (k + 1)
          end
        end
      in
      let live, b, image, s = tear_log_segment 0 in
      let sim =
        match image with
        | Some i -> Recovery.recover i
        | None -> Alcotest.fail "fault never fired"
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: torn tail detected" seed)
        true s.Log_store.s_torn_tail;
      let st =
        Recovery.recover_store ~num_objects:cfg.Experiment.num_objects b
      in
      (* the torn segment's entries are all discarded: keep ends
         mid-first-entry *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: torn records counted" seed)
        true
        (st.Recovery.torn_records > 0);
      (* prefix property: nothing the truncated image recovers can
         exceed what the simulated crash knows *)
      List.iter
        (fun tid ->
          if not (List.mem tid sim.Recovery.committed_tids) then
            Alcotest.fail
              (Printf.sprintf
                 "seed %d: store recovered tid %d unknown to the sim image"
                 seed (Ids.Tid.to_int tid)))
        st.Recovery.committed_tids;
      List.iter
        (fun (oid, v) ->
          match El_disk.Stable_db.version sim.Recovery.recovered oid with
          | Some sv when sv >= v -> ()
          | _ ->
            Alcotest.fail
              (Printf.sprintf
                 "seed %d: store recovered o%d v%d ahead of the sim image"
                 seed (Ids.Oid.to_int oid) v))
        (El_disk.Stable_db.snapshot st.Recovery.recovered);
      (* the reboot: revive the device, then attach cuts the image at
         the valid prefix *)
      Backend.revive b;
      ignore (Log_store.attach b);
      let s2 = Log_store.scan b in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: attach cleaned the tail" seed)
        false s2.Log_store.s_torn_tail;
      Experiment.dispose live)
    [ 1; 2; 3 ]

(* ---- hostile headers ---- *)

(* A checksum-valid header with a negative count would step the walk
   backwards into its own header: recovery would raise on a -1 discard
   count and attach would truncate mid-header.  Decode rejects it (and
   any count whose byte length overflows), so it is a torn tail. *)
let test_negative_count_header () =
  let header count =
    Codec.encode_header
      { Codec.h_epoch = 0; h_gen = 0; h_slot = 0; h_seq = 0; h_count = count }
  in
  List.iter
    (fun count ->
      Alcotest.(check bool)
        (Printf.sprintf "count %d rejected" count)
        true
        (Codec.decode_header (header count) ~pos:0 = None))
    [ -1; min_int; max_int; (max_int / Codec.entry_bytes) + 1 ];
  let b = Backend.mem () in
  Backend.pwrite b ~off:0 (header (-1));
  Alcotest.(check int) "one 52-byte header" 52 (Backend.size b);
  let s = Log_store.scan b in
  Alcotest.(check bool) "torn tail" true s.Log_store.s_torn_tail;
  Alcotest.(check int) "nothing before it" 0 s.Log_store.s_end;
  Alcotest.(check int) "no segment" 0 s.Log_store.s_segments;
  let r = Recovery.recover_store ~num_objects:100 b in
  Alcotest.(check int) "nothing recovered" 0 r.Recovery.records_scanned;
  ignore (Log_store.attach b);
  Alcotest.(check int) "attach cuts at the header, not inside it" 0
    (Backend.size b)

(* A checksum-valid entry holding a field no encoder writes decodes to
   nothing instead of raising out of a constructor. *)
let test_hostile_entry_fields () =
  let forge ~field value =
    let b = Codec.encode_entry (Codec.Record (List.nth sample_records 1)) in
    Bytes.set_int64_le b field (Int64.of_int value);
    Bytes.set_int64_le b 41 (Codec.fnv1a_64 b ~pos:0 ~len:41);
    b
  in
  List.iter
    (fun (name, field, value) ->
      Alcotest.(check bool) name true
        (Codec.decode_entry (forge ~field value) ~pos:0 = None))
    [
      ("negative tid", 1, -1);
      ("negative oid", 9, -7);
      ("negative version", 17, -2);
      ("zero size", 25, 0);
      ("negative timestamp", 33, min_int);
    ]

(* Checksum-valid entries and install facts naming an oid the
   database does not have: recovery drops and counts them instead of
   raising out of [Stable_db.apply], and a serve restart on the image
   comes up with the in-range state. *)
let out_of_range_fact b =
  let t = Log_store.create b in
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 500) ~version:1;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:2

let out_of_range_entry b =
  let t = Log_store.create b in
  let tid = Ids.Tid.of_int 3 and timestamp = Time.of_us 10 in
  Log_store.append_block t ~gen:0 ~slot:0
    [
      Log_record.begin_ ~tid ~size:8 ~timestamp;
      Log_record.data ~tid ~oid:(Ids.Oid.of_int 100) ~version:1 ~size:10
        ~timestamp;
      Log_record.data ~tid ~oid:(Ids.Oid.of_int 8) ~version:4 ~size:10
        ~timestamp;
      Log_record.commit ~tid ~size:8 ~timestamp;
    ]

let test_out_of_range_oids () =
  let check name build ~dropped ~state =
    let b = Backend.mem () in
    build b;
    let r = Recovery.recover_store ~num_objects:100 b in
    Alcotest.(check int) (name ^ ": dropped and counted") dropped
      r.Recovery.out_of_range;
    Alcotest.(check (list (pair int int)))
      (name ^ ": in-range state recovered") state
      (List.sort compare
         (List.map
            (fun (o, v) -> (Ids.Oid.to_int o, v))
            (El_disk.Stable_db.snapshot r.Recovery.recovered)));
    with_temp_dir (fun dir ->
        let image = Filename.concat dir "serve.img" in
        let fb = Backend.file ~path:image in
        build fb;
        Backend.close fb;
        let t =
          El_serve.Serve.start
            { (El_serve.Serve.default_config ~image) with num_objects = 100 }
        in
        Fun.protect
          ~finally:(fun () -> El_serve.Serve.close t)
          (fun () ->
            Alcotest.(check int) (name ^ ": serve restart counts them") dropped
              (El_serve.Serve.recovered t).Recovery.out_of_range))
  in
  check "stable fact" out_of_range_fact ~dropped:1 ~state:[ (7, 2) ];
  check "data entry" out_of_range_entry ~dropped:1 ~state:[ (8, 4) ];
  check "both"
    (fun b ->
      out_of_range_fact b;
      let t = Log_store.attach b in
      Log_store.append_block t ~gen:0 ~slot:0
        [
          Log_record.data ~tid:(Ids.Tid.of_int 4) ~oid:(Ids.Oid.of_int 100)
            ~version:2 ~size:10 ~timestamp:(Time.of_us 20);
          Log_record.commit ~tid:(Ids.Tid.of_int 4) ~size:8
            ~timestamp:(Time.of_us 21);
        ])
    ~dropped:2 ~state:[ (7, 2) ]

(* ---- the single-pass restart ---- *)

let backend_of_string img =
  let b = Backend.mem () in
  if img <> "" then Backend.pwrite b ~off:0 (Bytes.of_string img);
  b

let image_string b =
  Bytes.to_string (Backend.pread b ~off:0 ~len:(Backend.size b))

(* A segment torn mid-write: a valid header promising two entries,
   then half of the first. *)
let partial_segment ~seq =
  let h =
    Codec.encode_header
      { Codec.h_epoch = 9; h_gen = 0; h_slot = 0; h_seq = seq; h_count = 2 }
  in
  let e = Codec.encode_entry (Codec.Record (List.hd sample_records)) in
  Bytes.cat h (Bytes.sub e 0 (Codec.entry_bytes / 2))

(* Restart reads the image once: on a file backend the attach and the
   recovery of its scan issue one pread between them, where attach
   followed by recover_store issued two — and both recover the same
   state.  A torn tail still costs no second read. *)
let test_single_read_restart () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "disk.img" in
      let b = Backend.file ~path in
      let t = Log_store.create b in
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 0);
      Log_store.append_block t ~gen:0 ~slot:1 sample_records;
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 2 50);
      Log_store.append_stable t ~oid:(Ids.Oid.of_int 5) ~version:4;
      Backend.close b;
      let restart ~torn =
        let b = Backend.file ~path in
        if torn then Backend.pwrite b ~off:(Backend.size b) (partial_segment ~seq:9);
        let _, s = Log_store.attach_with_scan b in
        let r = Recovery.recover_scan ~num_objects:100 s in
        let preads = (Backend.counters b).Backend.preads in
        Backend.close b;
        (r, preads)
      in
      let r1, preads1 = restart ~torn:false in
      Alcotest.(check int) "one pread for attach + recovery" 1 preads1;
      let b2 = Backend.file ~path in
      ignore (Log_store.attach b2);
      let r2 = Recovery.recover_store ~num_objects:100 b2 in
      Alcotest.(check int) "attach; recover_store reads twice" 2
        (Backend.counters b2).Backend.preads;
      Backend.close b2;
      Alcotest.(check bool) "same recovered state" true
        (recovery_view r1 = recovery_view r2);
      let r3, preads3 = restart ~torn:true in
      Alcotest.(check int) "torn tail: still one pread" 1 preads3;
      Alcotest.(check bool) "the torn segment adds nothing" true
        (recovery_view r3 = recovery_view r1))

(* The scan attach hands over is the view after its truncate: the
   valid prefix of a partially written last segment goes with the cut,
   exactly as when a rescan followed the attach. *)
let test_attach_scan_after_truncate () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_block t ~gen:0 ~slot:0 (records_of 2 0);
  Log_store.append_block t ~gen:0 ~slot:1 (records_of 5 10);
  let keep =
    Backend.size b - (2 * Codec.entry_bytes) - (Codec.entry_bytes / 2)
  in
  Backend.truncate b ~len:keep;
  let before = Log_store.scan b in
  Alcotest.(check bool) "torn before attach" true before.Log_store.s_torn_tail;
  let t2, s = Log_store.attach_with_scan b in
  Alcotest.(check bool) "handed-over scan is clean" false s.Log_store.s_torn_tail;
  Alcotest.(check int) "only the complete segment survives" 1
    (List.length s.Log_store.s_blocks);
  Alcotest.(check bool) "equals a rescan of the cut image" true
    (s = Log_store.scan b);
  Alcotest.(check int) "new epoch above the torn header" 1 (Log_store.epoch t2);
  Alcotest.(check int) "sequence resumes above the torn header" 2
    (Log_store.position t2);
  let r = Recovery.recover_scan ~num_objects:100 s in
  Alcotest.(check int) "no torn records: the tail is gone" 0
    r.Recovery.torn_records;
  Alcotest.(check int) "the complete segment is replayed" 2
    r.Recovery.records_scanned

(* A second crash while restarting: attach has cut a torn tail, then
   the process dies again — before it appends anything, or tearing its
   first new segment at any byte.  The next attach must recover what
   the first one did, and segments landed after it must carry an epoch
   no scan has seen, so they shadow nothing. *)
let test_second_crash_during_attach () =
  let torn_image =
    let b = Backend.mem () in
    let t = Log_store.create b in
    Log_store.append_block t ~gen:0 ~slot:0 sample_records;
    Log_store.append_stable t ~oid:(Ids.Oid.of_int 5) ~version:4;
    Log_store.append_block t ~gen:0 ~slot:1 (records_of 5 10);
    Backend.truncate b
      ~len:(Backend.size b - (2 * Codec.entry_bytes) - (Codec.entry_bytes / 2));
    image_string b
  in
  let first_attach () =
    let b = backend_of_string torn_image in
    let t, s = Log_store.attach_with_scan b in
    (b, t, s, recovery_view (Recovery.recover_scan ~num_objects:100 s))
  in
  let b0, _, s0, expected = first_attach () in
  let cut = Backend.size b0 in
  let reattach name b =
    let t, s = Log_store.attach_with_scan b in
    Alcotest.(check int) (name ^ ": cut back to the first attach's image") cut
      (Backend.size b);
    Alcotest.(check bool) (name ^ ": same recovered state") true
      (recovery_view (Recovery.recover_scan ~num_objects:100 s) = expected);
    Log_store.append_block t ~gen:0 ~slot:0 (records_of 2 50);
    let after = Log_store.scan b in
    Alcotest.(check bool) (name ^ ": new epoch above every scanned one") true
      (List.for_all
         (fun bl -> bl.Log_store.sb_epoch < Log_store.epoch t)
         (s0.Log_store.s_blocks @ s.Log_store.s_blocks));
    Alcotest.(check int) (name ^ ": the landed segment shadows nothing")
      (List.length s.Log_store.s_blocks + 1)
      (List.length after.Log_store.s_blocks)
  in
  (* crash before any append: the truncated image is all there is *)
  let b, _, _, _ = first_attach () in
  reattach "no append" b;
  (* crash tearing the first new segment anywhere inside it *)
  List.iter
    (fun keep ->
      let b, t, _, _ = first_attach () in
      Backend.set_write_fault b ~after_pwrites:0 ~keep_bytes:keep;
      Log_store.append_block t ~gen:0 ~slot:0 (records_of 3 30);
      Alcotest.(check bool) "the tear fired" true (Backend.dead b);
      Backend.revive b;
      Alcotest.(check int) "only the torn prefix landed" (cut + keep)
        (Backend.size b);
      reattach (Printf.sprintf "torn at byte %d" keep) b)
    [
      1;
      Codec.header_bytes - 1;
      Codec.header_bytes;
      Codec.header_bytes + Codec.entry_bytes;
      Codec.header_bytes + (2 * Codec.entry_bytes) + 5;
    ]

(* The reference scan: decode every entry of every segment, then dedup
   log segments by key — the plain form of what [scan] computes while
   skipping the entries of superseded segments.  Install facts are
   kept as met, in image order. *)
let oracle_scan ?upto backend =
  let img = Backend.pread backend ~off:0 ~len:(Backend.size backend) in
  let len = Bytes.length img in
  let rec decode pos i avail acc =
    if i >= avail then (List.rev acc, 0)
    else
      match Codec.decode_entry img ~pos:(pos + (i * Codec.entry_bytes)) with
      | None -> (List.rev acc, avail - i)
      | Some e -> decode pos (i + 1) avail (e :: acc)
  in
  let stable = ref [] and logs = ref [] and segs = ref 0 in
  let torn = ref false and s_end = ref 0 in
  let max_ep = ref (-1) and max_seq = ref (-1) in
  let rec walk off =
    let header =
      if len - off < Codec.header_bytes then None
      else Codec.decode_header img ~pos:off
    in
    match header with
    | None -> torn := len > off
    | Some h ->
      let body = off + Codec.header_bytes in
      let full = len - body >= h.h_count * Codec.entry_bytes in
      let avail =
        if full then h.h_count else (len - body) / Codec.entry_bytes
      in
      if Option.fold ~none:true ~some:(fun n -> h.h_seq < n) upto then begin
        incr segs;
        max_ep := max !max_ep h.h_epoch;
        max_seq := max !max_seq h.h_seq;
        let entries, cut = decode body 0 avail [] in
        if h.h_gen >= 0 then
          logs :=
            { Log_store.sb_epoch = h.h_epoch; sb_gen = h.h_gen;
              sb_slot = h.h_slot; sb_seq = h.h_seq;
              sb_records =
                List.filter_map
                  (function Codec.Record r -> Some r | _ -> None)
                  entries;
              sb_discarded = cut + h.h_count - avail }
            :: !logs
        else
          List.iter
            (function
              | Codec.Stable { oid; version } -> stable := (oid, version) :: !stable
              | Codec.Record _ -> ())
            entries
      end;
      if full then begin
        s_end := body + (h.h_count * Codec.entry_bytes);
        walk !s_end
      end
      else torn := true
  in
  walk 0;
  let newest = Hashtbl.create 16 in
  List.iter
    (fun (b : Log_store.block) ->
      let key = (b.sb_epoch, b.sb_gen, b.sb_slot) in
      match Hashtbl.find_opt newest key with
      | Some (p : Log_store.block) when p.sb_seq >= b.sb_seq -> ()
      | _ -> Hashtbl.replace newest key b)
    !logs;
  let blocks = Hashtbl.fold (fun _ b acc -> b :: acc) newest [] in
  let by_seq (a : Log_store.block) (b : Log_store.block) =
    compare a.sb_seq b.sb_seq
  in
  { Log_store.s_blocks = List.sort by_seq blocks;
    s_stable = Array.of_list (List.rev !stable);
    s_segments = !segs;
    s_stale_blocks = List.length !logs - List.length blocks;
    s_torn_tail = !torn;
    s_end = !s_end;
    s_max_epoch = !max_ep;
    s_max_seq = !max_seq }

(* Random images as the store writes them: reused slots, stable facts,
   torn suffixes and re-attaches (new epochs). *)
type op =
  | Block of {
      gen : int;
      slot : int;
      records : Log_record.t list;
      torn : int option;
    }
  | Fact of int * int
  | Reattach

let op_gen_of oid_gen =
  let open QCheck.Gen in
  let record =
    map
      (fun (k, tid, oid, version, size) ->
        let tid = Ids.Tid.of_int tid and timestamp = Time.of_us (tid * 10) in
        match k with
        | 0 -> Log_record.begin_ ~tid ~size ~timestamp
        | 1 | 2 -> Log_record.commit ~tid ~size ~timestamp
        | 3 -> Log_record.abort ~tid ~size ~timestamp
        | _ ->
          Log_record.data ~tid ~oid:(Ids.Oid.of_int oid) ~version ~size
            ~timestamp)
      (tup5 (int_bound 7) (int_bound 12) oid_gen (int_bound 30)
         (int_range 1 64))
  in
  frequency
    [
      ( 6,
        map
          (fun (gen, slot, records, torn) ->
            let torn = Option.map (fun k -> k mod (List.length records + 1)) torn in
            Block { gen; slot; records; torn })
          (tup4 (int_bound 2) (int_bound 3) (list_size (int_range 1 6) record)
             (opt ~ratio:0.2 (int_bound 6))) );
      (3, map2 (fun o v -> Fact (o, v)) oid_gen (int_bound 30));
      (1, return Reattach);
    ]

let op_gen = op_gen_of (QCheck.Gen.int_bound 20)

let build_image ops =
  let b = Backend.mem () in
  let t = ref (Log_store.create b) in
  List.iter
    (function
      | Block { gen; slot; records; torn } ->
        Log_store.append_block !t ~gen ~slot ?torn_suffix:torn records
      | Fact (oid, version) ->
        Log_store.append_stable !t ~oid:(Ids.Oid.of_int oid) ~version
      | Reattach -> t := Log_store.attach b)
    ops;
  image_string b

(* An image cut at a random byte, and a random crash mark. *)
let cut_image_arb =
  let open QCheck in
  let gen =
    Gen.(
      map
        (fun (ops, cut, upto) ->
          let img = build_image ops in
          let img =
            match cut with
            | None -> img
            | Some c -> String.sub img 0 (c mod (String.length img + 1))
          in
          (img, upto))
        (triple (list_size (int_bound 25) op_gen) (opt (int_bound 100_000))
           (opt (int_bound 30))))
  in
  make ~print:(fun (img, upto) ->
      Printf.sprintf "%d bytes, upto %s" (String.length img)
        (match upto with None -> "-" | Some n -> string_of_int n))
    gen

let prop_scan_matches_oracle =
  QCheck.Test.make ~name:"scan == decode-everything oracle, field for field"
    ~count:400 cut_image_arb (fun (img, upto) ->
      Log_store.scan ?upto (backend_of_string img)
      = oracle_scan ?upto (backend_of_string img))

(* The two-pass restart — truncate the torn tail, scan the backend
   again, lift and recover — against the single pass. *)
let prop_single_pass_restart =
  QCheck.Test.make ~name:"attach_with_scan + recover_scan == attach; rescan"
    ~count:400 cut_image_arb (fun (img, _) ->
      let old_b = backend_of_string img in
      let pre = oracle_scan old_b in
      if pre.Log_store.s_torn_tail then Backend.truncate old_b ~len:pre.s_end;
      let old_scan = oracle_scan old_b in
      let old_r =
        Recovery.recover (Recovery.image_of_scan ~num_objects:100 old_scan)
      in
      let b = backend_of_string img in
      let t, s = Log_store.attach_with_scan b in
      let r = Recovery.recover_scan ~num_objects:100 s in
      s = old_scan
      && image_string b = image_string old_b
      && Log_store.epoch t = pre.s_max_epoch + 1
      && Log_store.position t = pre.s_max_seq + 1
      && El_disk.Stable_db.equal r.Recovery.recovered old_r.Recovery.recovered
      && List.sort compare r.committed_tids = List.sort compare old_r.committed_tids
      && r.records_scanned = old_r.records_scanned
      && r.redo_applied = old_r.redo_applied
      && r.torn_blocks = old_r.torn_blocks
      && r.torn_records = old_r.torn_records)

(* ---- mutation fuzz ---- *)

let flip_bits img flips =
  let b = Bytes.of_string img in
  if Bytes.length b > 0 then
    List.iter
      (fun (pos, bit) ->
        let pos = pos mod Bytes.length b in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit))))
      flips;
  Bytes.to_string b

(* Offsets where the walk of [img] meets a header: 0 and the end of
   every complete segment. *)
let segment_starts img =
  let b = Bytes.of_string img and len = String.length img in
  let rec go off acc =
    if len - off < Codec.header_bytes then off :: acc
    else
      match Codec.decode_header b ~pos:off with
      | Some h
        when len - off - Codec.header_bytes >= h.h_count * Codec.entry_bytes ->
        go
          (off + Codec.header_bytes + (h.h_count * Codec.entry_bytes))
          (off :: acc)
      | Some _ | None -> off :: acc
  in
  Array.of_list (go 0 [])

(* Splices checksum-valid headers with hostile fields into an image,
   overwriting or inserting at offsets the walk reaches (even [pos]) or
   at arbitrary ones (odd [pos]). *)
let splice_headers img splices =
  List.fold_left
    (fun img (pos, insert, (epoch, gen, seq, count)) ->
      let h =
        Bytes.to_string
          (Codec.encode_header
             { Codec.h_epoch = epoch; h_gen = gen; h_slot = 0; h_seq = seq;
               h_count = count })
      in
      let pos =
        if pos mod 2 = 0 then
          let starts = segment_starts img in
          starts.(pos / 2 mod Array.length starts)
        else pos mod (String.length img + 1)
      in
      let tail =
        if insert then String.sub img pos (String.length img - pos)
        else
          let rest = pos + Codec.header_bytes in
          if rest >= String.length img then ""
          else String.sub img rest (String.length img - rest)
      in
      String.sub img 0 pos ^ h ^ tail)
    img splices

let mutated_image_arb =
  let open QCheck in
  (* entries and facts may name oids at or above the fuzz's
     num_objects = 100; the out-of-range ones come from two values,
     so one often appears twice in an image *)
  let oid =
    Gen.(
      frequency
        [ (3, int_bound 20); (1, int_range 97 99); (2, int_range 100 101) ])
  in
  let real =
    Gen.(map build_image (list_size (int_bound 12) (op_gen_of oid)))
  in
  let count =
    Gen.oneof
      [
        Gen.int_range (-2) 8;
        Gen.oneofl [ min_int; max_int; max_int / Codec.entry_bytes; 1 lsl 40 ];
      ]
  in
  let header =
    Gen.(quad (int_range (-2) 4) (int_range (-3) 3) (int_range (-2) 40) count)
  in
  let gen =
    Gen.(
      pair
        (frequency
           [
             (1, string_size ~gen:char (int_bound 400));
             ( 2,
               map2 flip_bits real
                 (list_size (int_range 1 8)
                    (pair (int_bound 100_000) (int_bound 7))) );
             ( 2,
               map2 splice_headers real
                 (list_size (int_range 1 4)
                    (triple (int_bound 100_000) bool header)) );
           ])
        (opt (int_bound 30)))
  in
  make ~print:(fun (img, _) -> String.escaped img) gen

(* On any bytes: no raise, one read per scan, a cut inside the image,
   and bounded work — the walk only moves forward, so it visits each
   header at most once and counts at most size / header_bytes of them.
   The attach truncates to exactly the scan's end and hands over the
   rescan of what is left. *)
let prop_fuzz_total =
  QCheck.Test.make ~name:"scan/attach/recover_store total on mutated bytes"
    ~count:600 mutated_image_arb (fun (img, upto) ->
      let size = String.length img in
      let b = backend_of_string img in
      let s = Log_store.scan ?upto b in
      let one_read = (Backend.counters b).Backend.preads = 1 in
      let all = Log_store.scan b in
      ignore (Recovery.recover_store ?upto ~num_objects:100 b);
      let ab = backend_of_string img in
      let t, handed = Log_store.attach_with_scan ab in
      ignore (Recovery.recover_scan ~num_objects:100 handed);
      ignore (Log_store.attach (backend_of_string img));
      one_read
      && s.Log_store.s_end <= size
      && all.s_segments <= size / Codec.header_bytes
      && s.s_segments <= all.s_segments
      && Backend.size ab = all.s_end
      && (not handed.s_torn_tail)
      && handed = Log_store.scan ab
      && Log_store.epoch t = all.s_max_epoch + 1)

(* ---- recovery of install facts ---- *)

(* The stable-fact path from before the scan kept facts in image
   order: dedup to the newest version per oid, sort by oid, rebuild a
   stable version from the list, counting each out-of-range oid once.
   The log records go through [Recovery.recover] over valid seals only
   (discarded entries are counted here, never sealed), so this
   reference shares no stable-fact code with [recover_scan]. *)
let reference_recovery ~num_objects (s : Log_store.scan) =
  let best = Hashtbl.create 16 in
  Array.iter
    (fun (oid, v) ->
      match Hashtbl.find_opt best oid with
      | Some w when w >= v -> ()
      | Some _ | None -> Hashtbl.replace best oid v)
    s.Log_store.s_stable;
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> Ids.Oid.compare a b)
      (Hashtbl.fold (fun oid v acc -> (oid, v) :: acc) best [])
  in
  let stable = El_disk.Stable_db.create ~num_objects in
  let dropped =
    List.fold_left
      (fun dropped (oid, version) ->
        if El_disk.Stable_db.in_range stable oid then begin
          El_disk.Stable_db.apply stable oid ~version;
          dropped
        end
        else dropped + 1)
      0 sorted
  in
  let r =
    Recovery.recover
      {
        Recovery.blocks =
          List.map
            (fun (b : Log_store.block) -> List.map Recovery.seal b.sb_records)
            s.s_blocks;
        stable;
        reference = [];
        crash_time = Time.zero;
      }
  in
  let torn = List.filter (fun (b : Log_store.block) -> b.sb_discarded > 0) s.s_blocks in
  {
    r with
    Recovery.out_of_range = r.Recovery.out_of_range + dropped;
    torn_blocks = List.length torn;
    torn_records =
      List.fold_left (fun n (b : Log_store.block) -> n + b.sb_discarded) 0 torn;
  }

let same_result (a : Recovery.result) (b : Recovery.result) =
  El_disk.Stable_db.equal a.recovered b.recovered
  && List.sort compare a.committed_tids = List.sort compare b.committed_tids
  && a.records_scanned = b.records_scanned
  && a.redo_applied = b.redo_applied
  && a.redo_skipped = b.redo_skipped
  && a.out_of_range = b.out_of_range
  && a.torn_blocks = b.torn_blocks
  && a.torn_records = b.torn_records

let recovers_like_reference (img, upto) =
  let s = Log_store.scan ?upto (backend_of_string img) in
  same_result
    (Recovery.recover_scan ~num_objects:100 s)
    (reference_recovery ~num_objects:100 s)

let prop_facts_match_reference =
  QCheck.Test.make ~name:"recover_scan == dedup/sort/rebuild reference"
    ~count:400 cut_image_arb recovers_like_reference

let prop_facts_match_reference_fuzz =
  QCheck.Test.make
    ~name:"recover_scan == dedup/sort/rebuild reference on mutated bytes"
    ~count:400 mutated_image_arb recovers_like_reference

(* Out-of-range facts count by oid, not by fact: installing one twice
   is one dropped oid, as when the scan deduped facts before recovery
   saw them. *)
let test_out_of_range_fact_counts_once () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 500) ~version:1;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:2;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 500) ~version:3;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 7) ~version:1;
  let s = Log_store.scan b in
  Alcotest.(check int) "every fact kept" 4 (Array.length s.Log_store.s_stable);
  let r = Recovery.recover_scan ~num_objects:100 s in
  Alcotest.(check int) "one oid dropped" 1 r.Recovery.out_of_range;
  Alcotest.(check (option int)) "in-range oid at its max version" (Some 2)
    (El_disk.Stable_db.version r.Recovery.recovered (Ids.Oid.of_int 7))

(* A scan is a value: recovering it twice gives the same result and
   leaves it equal to a fresh scan of the same image. *)
let test_recover_scan_twice () =
  let b = Backend.mem () in
  let t = Log_store.create b in
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 3) ~version:5;
  Log_store.append_block t ~gen:0 ~slot:0 sample_records;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 3) ~version:2;
  Log_store.append_stable t ~oid:(Ids.Oid.of_int 120) ~version:1;
  Log_store.append_block t ~gen:0 ~slot:1 ~torn_suffix:1 (records_of 3 10);
  let _, s = Log_store.attach_with_scan b in
  let r1 = Recovery.recover_scan ~num_objects:100 s in
  let r2 = Recovery.recover_scan ~num_objects:100 s in
  Alcotest.(check bool) "both runs agree" true (same_result r1 r2);
  Alcotest.(check bool) "the scan is unchanged" true (s = Log_store.scan b);
  Alcotest.(check bool) "and matches the reference" true
    (same_result r1 (reference_recovery ~num_objects:100 s))

(* Deterministic allocation gate on restart: minor words allocated by
   [attach_with_scan] + [recover_scan] per install fact, on a mem image
   of 20k facts naming 20k distinct oids.  Measured with OCaml 5.1.1
   on amd64: 87.5 words per fact when the scan deduped the facts into
   a table, sorted them by oid and recovery rebuilt a stable version
   from the list; 36.1 with the facts kept in image order and folded
   once.  The bound leaves about 10 % over the latter. *)
let test_restart_alloc_per_fact () =
  let facts = 20_000 in
  let b = Backend.mem () in
  let t = Log_store.create ~sync_mode:Log_store.Manual b in
  for i = 0 to facts - 1 do
    Log_store.append_stable t ~oid:(Ids.Oid.of_int (i * 7919 mod facts))
      ~version:(i + 1)
  done;
  Log_store.sync t;
  let w0 = Gc.minor_words () in
  let _, s = Log_store.attach_with_scan b in
  let r = Recovery.recover_scan ~num_objects:100_000 s in
  let per_fact = (Gc.minor_words () -. w0) /. float_of_int facts in
  Alcotest.(check int) "every oid recovered" facts
    (El_disk.Stable_db.objects_written r.Recovery.recovered);
  if per_fact > 40.0 then
    Alcotest.failf
      "restart allocates %.1f minor words per install fact (bound 40)"
      per_fact

let suite =
  [
    Alcotest.test_case "mem backend roundtrip" `Quick test_mem_roundtrip;
    Alcotest.test_case "file backend persists" `Quick test_file_persists;
    Alcotest.test_case "mem/file images byte-equal" `Quick
      test_mem_file_byte_equal;
    Alcotest.test_case "use after close raises" `Quick test_use_after_close;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects corruption" `Quick test_codec_corruption;
    Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip;
    Alcotest.test_case "scan dedups reused slots" `Quick test_store_scan_dedup;
    Alcotest.test_case "torn suffix discarded" `Quick test_store_torn_suffix;
    Alcotest.test_case "scan honours crash mark" `Quick test_store_upto;
    Alcotest.test_case "attach bumps the epoch" `Quick test_attach_epochs;
    Alcotest.test_case "truncated image loses only the tail" `Quick
      test_truncated_image;
    Alcotest.test_case "mem = file recovered state (3 seeds x 3 kinds)" `Slow
      test_mem_file_equivalence;
    Alcotest.test_case "sim = mem run results" `Quick
      test_sim_mem_result_identity;
    Alcotest.test_case "crash mark freezes the sim image" `Quick
      test_crash_mark_fidelity;
    Alcotest.test_case "grouped sync: same bytes, fewer barriers" `Quick
      test_grouped_sync_bytes_identical;
    Alcotest.test_case "group sync requests coalesce" `Quick
      test_group_sync_coalesces;
    Alcotest.test_case "write fault tears a segment" `Quick
      test_write_fault_torn_segment;
    Alcotest.test_case "mid-run device death: replay = simulated recovery"
      `Quick test_write_fault_replay_agrees;
    Alcotest.test_case "mid-run torn death: store is a strict prefix" `Quick
      test_write_fault_torn_prefix;
    Alcotest.test_case "negative-count header is a torn tail" `Quick
      test_negative_count_header;
    Alcotest.test_case "hostile entry fields decode to nothing" `Quick
      test_hostile_entry_fields;
    Alcotest.test_case "restart reads the image once" `Quick
      test_single_read_restart;
    Alcotest.test_case "attach hands over the post-truncate scan" `Quick
      test_attach_scan_after_truncate;
    QCheck_alcotest.to_alcotest prop_scan_matches_oracle;
    QCheck_alcotest.to_alcotest prop_single_pass_restart;
    QCheck_alcotest.to_alcotest prop_fuzz_total;
    Alcotest.test_case "out-of-range oids are dropped and counted" `Quick
      test_out_of_range_oids;
    Alcotest.test_case "second crash during attach recovers the same" `Quick
      test_second_crash_during_attach;
    QCheck_alcotest.to_alcotest prop_facts_match_reference;
    QCheck_alcotest.to_alcotest prop_facts_match_reference_fuzz;
    Alcotest.test_case "an out-of-range oid installed twice counts once" `Quick
      test_out_of_range_fact_counts_once;
    Alcotest.test_case "a scan recovers the same twice" `Quick
      test_recover_scan_twice;
    Alcotest.test_case "restart minor words per install fact" `Quick
      test_restart_alloc_per_fact;
  ]
