(* The durable-log server: an [ok committed] line on the wire promises
   the COMMIT record is on the platter.  The crash test enforces the
   promise the hard way — SIGKILL the server process mid-stream and
   require a fresh scan of its image to recover every acked
   transaction. *)

open El_model
module Serve = El_serve.Serve
module Recovery = El_recovery.Recovery

let with_temp_dir f =
  let dir = Filename.temp_file "el_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let num_objects = 1_000

let config ~image ~fresh =
  { (Serve.default_config ~image) with Serve.fresh; num_objects }

(* Spawn a server child speaking the line protocol over two pipes.
   A real process (serve_child.exe, via posix_spawn) rather than a
   fork: the test runner has live domains by the time this suite
   runs, and it also gives SIGKILL a genuinely independent victim. *)
let child_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "serve_child.exe"

(* The manager a child serves, as its command-line flags. *)
let kinds =
  [ ("el", [||]); ("fw", [| "--fw"; "512" |]); ("hybrid", [| "--hybrid"; "16,16" |]) ]

let with_server ?(group_fsync = false) ?(kind = [||]) ~image ~fresh f =
  let c2s_r, c2s_w = Unix.pipe ~cloexec:false () in
  let s2c_r, s2c_w = Unix.pipe ~cloexec:false () in
  let args =
    Array.concat
      [
        [| child_exe; image |];
        (if fresh then [| "--fresh" |] else [||]);
        (if group_fsync then [| "--group-fsync" |] else [||]);
        kind;
      ]
  in
  let pid = Unix.create_process child_exe args c2s_r s2c_w Unix.stderr in
  Unix.close c2s_r;
  Unix.close s2c_w;
  let oc = Unix.out_channel_of_descr c2s_w in
  let ic = Unix.in_channel_of_descr s2c_r in
  Fun.protect
    ~finally:(fun () ->
      (try close_out oc with Sys_error _ -> ());
      (try close_in ic with Sys_error _ -> ());
      (* reap, whatever state the test left the child in *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () -> f pid ic oc)

let command oc ic line =
  output_string oc (line ^ "\n");
  flush oc;
  input_line ic

let recovered_tids image =
  let b = El_store.Backend.file ~path:image in
  Fun.protect
    ~finally:(fun () -> El_store.Backend.close b)
    (fun () ->
      let r = Recovery.recover_store ~num_objects b in
      List.sort compare
        (List.map Ids.Tid.to_int r.Recovery.committed_tids))

let test_clean_session kind () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~kind ~image ~fresh:true (fun pid ic oc ->
          Alcotest.(check string) "begin" "ok begun 1" (command oc ic "BEGIN 1");
          Alcotest.(check string)
            "write" "ok written 1 10 1"
            (command oc ic "WRITE 1 10 1");
          Alcotest.(check string)
            "commit" "ok committed 1" (command oc ic "COMMIT 1");
          Alcotest.(check string) "begin 2" "ok begun 2"
            (command oc ic "begin 2");
          Alcotest.(check string) "abort" "ok aborted 2"
            (command oc ic "ABORT 2");
          let frob = command oc ic "FROB 1" in
          Alcotest.(check bool)
            "unknown verb answers err" true
            (String.length frob >= 3 && String.sub frob 0 3 = "err");
          let stat = command oc ic "STAT" in
          Alcotest.(check bool)
            "stat after err: session survived" true
            (String.length stat >= 4 && String.sub stat 0 4 = "stat");
          Alcotest.(check string) "fresh image recovered nothing"
            "recovered 0" (command oc ic "RECOVERED");
          Alcotest.(check string) "quit" "bye" (command oc ic "QUIT");
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool)
            "clean exit" true
            (status = Unix.WEXITED 0));
      Alcotest.(check (list int))
        "scan finds the committed, not the aborted" [ 1 ]
        (recovered_tids image))

let test_sigkill_recovers_acked () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let total = 40 in
      let kill_after = 25 in
      let acked =
        with_server ~image ~fresh:true (fun pid ic oc ->
            let acked = ref [] in
            (try
               for tid = 1 to total do
                 ignore (command oc ic (Printf.sprintf "BEGIN %d" tid));
                 ignore
                   (command oc ic
                      (Printf.sprintf "WRITE %d %d %d" tid (tid mod num_objects)
                         tid));
                 let r = command oc ic (Printf.sprintf "COMMIT %d" tid) in
                 if r = Printf.sprintf "ok committed %d" tid then
                   acked := tid :: !acked;
                 if List.length !acked >= kill_after then raise Exit
               done
             with Exit -> ());
            Unix.kill pid Sys.sigkill;
            let _, status = Unix.waitpid [] pid in
            Alcotest.(check bool)
              "killed, not exited" true
              (status = Unix.WSIGNALED Sys.sigkill);
            List.rev !acked)
      in
      Alcotest.(check int) "enough acks before the kill" kill_after
        (List.length acked);
      let recovered = recovered_tids image in
      List.iter
        (fun tid ->
          Alcotest.(check bool)
            (Printf.sprintf "acked tid %d recovered after SIGKILL" tid)
            true (List.mem tid recovered))
        acked)

let stat_field stat key =
  let prefix = key ^ "=" in
  match
    List.find_opt
      (String.starts_with ~prefix)
      (String.split_on_char ' ' stat)
  with
  | Some tok ->
    String.sub tok (String.length prefix)
      (String.length tok - String.length prefix)
  | None -> Alcotest.failf "STAT field %s missing in %S" key stat

(* Same traffic against one server; returns its final STAT line after
   SIGKILLing it (so the on-disk image is exactly what was durable). *)
let run_traffic ~group_fsync ~image ~txs ~writes_per_tx =
  with_server ~group_fsync ~image ~fresh:true (fun pid ic oc ->
      for tid = 1 to txs do
        ignore (command oc ic (Printf.sprintf "BEGIN %d" tid));
        for w = 1 to writes_per_tx do
          let oid = ((tid * writes_per_tx) + w) mod num_objects in
          ignore (command oc ic (Printf.sprintf "WRITE %d %d %d" tid oid tid))
        done;
        Alcotest.(check string) "ack"
          (Printf.sprintf "ok committed %d" tid)
          (command oc ic (Printf.sprintf "COMMIT %d" tid))
      done;
      let stat = command oc ic "STAT" in
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      stat)

(* Group fsync batches barriers but must not weaken the ack contract:
   an [ok committed] line still survives SIGKILL, and STAT reports the
   batching so callers (and the CI leg) can see the reduction. *)
let test_group_fsync_batches_and_survives () =
  with_temp_dir (fun dir ->
      let txs = 12 and writes_per_tx = 4 in
      let image_g = Filename.concat dir "grouped.img" in
      let image_i = Filename.concat dir "immediate.img" in
      let stat_g =
        run_traffic ~group_fsync:true ~image:image_g ~txs ~writes_per_tx
      in
      let stat_i =
        run_traffic ~group_fsync:false ~image:image_i ~txs ~writes_per_tx
      in
      Alcotest.(check string) "grouped STAT flags it" "on"
        (stat_field stat_g "group_fsync");
      Alcotest.(check string) "immediate STAT flags it" "off"
        (stat_field stat_i "group_fsync");
      let barriers s = int_of_string (stat_field s "barriers") in
      Alcotest.(check bool)
        (Printf.sprintf "grouped barriers (%d) < immediate (%d)"
           (barriers stat_g) (barriers stat_i))
        true
        (barriers stat_g < barriers stat_i);
      let fpc = float_of_string (stat_field stat_g "fsyncs_per_commit") in
      Alcotest.(check bool) "fsyncs_per_commit parses and is sane" true
        (fpc >= 0. && fpc < 100.);
      let expected = List.init txs (fun i -> i + 1) in
      Alcotest.(check (list int)) "grouped: every acked commit recovered"
        expected (recovered_tids image_g);
      Alcotest.(check (list int)) "immediate: every acked commit recovered"
        expected (recovered_tids image_i))

(* Restarting on the same image must see earlier epochs' commits and
   add its own without shadowing them. *)
let test_restart_accumulates kind () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      with_server ~kind ~image ~fresh:true (fun _pid ic oc ->
          ignore (command oc ic "BEGIN 1");
          ignore (command oc ic "WRITE 1 1 1");
          Alcotest.(check string) "first epoch commit" "ok committed 1"
            (command oc ic "COMMIT 1");
          ignore (command oc ic "QUIT"));
      with_server ~kind ~image ~fresh:false (fun _pid ic oc ->
          Alcotest.(check string) "sees epoch 0" "recovered 1 1"
            (command oc ic "RECOVERED");
          Alcotest.(check string) "epoch 0's write readable" "ok read 1 1"
            (command oc ic "READ 1");
          ignore (command oc ic "BEGIN 2");
          ignore (command oc ic "WRITE 2 2 1");
          Alcotest.(check string) "second epoch commit" "ok committed 2"
            (command oc ic "COMMIT 2");
          ignore (command oc ic "QUIT"));
      Alcotest.(check (list int))
        "both epochs recovered" [ 1; 2 ] (recovered_tids image))

(* In-process protocol coverage that needs no fork. *)
let test_exec_protocol () =
  with_temp_dir (fun dir ->
      let image = Filename.concat dir "disk.img" in
      let t = Serve.start (config ~image ~fresh:true) in
      Fun.protect
        ~finally:(fun () -> Serve.close t)
        (fun () ->
          let reply line = fst (Serve.exec t line) in
          Alcotest.(check bool) "blank line is silent" true
            (Serve.exec t "   " = (None, true));
          Alcotest.(check (option string))
            "bad tid" (Some "err bad integer \"x\"") (reply "BEGIN x");
          Alcotest.(check (option string))
            "oid bounds checked"
            (Some (Printf.sprintf "err oid %d out of range" num_objects))
            (ignore (reply "BEGIN 3");
             reply (Printf.sprintf "WRITE 3 %d 1" num_objects));
          Alcotest.(check (option string))
            "commit acks" (Some "ok committed 3")
            (ignore (reply "WRITE 3 5 1");
             reply "COMMIT 3");
          Alcotest.(check bool) "ack recorded" true
            (Serve.tid_of_ack t (Ids.Tid.of_int 3));
          Alcotest.(check (option string))
            "READ of a never-written oid" (Some "ok read 7 0") (reply "READ 7");
          Alcotest.(check (option string))
            "READ bounds checked"
            (Some (Printf.sprintf "err oid %d out of range" num_objects))
            (reply (Printf.sprintf "READ %d" num_objects));
          Alcotest.(check bool) "quit stops" true
            (Serve.exec t "QUIT" = (Some "bye", false))))

(* One case per manager kind a server can run; the EL case's name
   carries no suffix. *)
let per_kind name test =
  List.map
    (fun (k, args) ->
      let name = if k = "el" then name else Printf.sprintf "%s (%s)" name k in
      Alcotest.test_case name `Quick (test args))
    kinds

let suite =
  per_kind "clean session, scan agrees" test_clean_session
  @ [
      Alcotest.test_case "SIGKILL loses no acked commit" `Quick
        test_sigkill_recovers_acked;
      Alcotest.test_case "group fsync batches, SIGKILL-safe" `Quick
        test_group_fsync_batches_and_survives;
    ]
  @ per_kind "restart accumulates epochs" test_restart_accumulates
  @ [
      Alcotest.test_case "protocol errors are survivable" `Quick
        test_exec_protocol;
    ]
