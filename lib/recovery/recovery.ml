open El_model

type sealed = { payload : Log_record.t; stamp : int }

(* A stand-in for a per-record CRC over the serialized bytes: an
   explicit integer mix of every field, so that any corruption the
   tests (or the torn-write model) introduce changes the stamp.  The
   simulation never serializes records, so the mix is over the logical
   fields directly. *)
let checksum (r : Log_record.t) =
  let kind_tag, oid, version =
    match r.Log_record.kind with
    | Log_record.Begin -> (1, 0, 0)
    | Log_record.Commit -> (2, 0, 0)
    | Log_record.Abort -> (3, 0, 0)
    | Log_record.Data { oid; version } -> (4, Ids.Oid.to_int oid, version)
  in
  let mix acc x = (acc * 0x01000193) lxor (x land max_int) in
  List.fold_left mix 0x811c9dc5
    [
      Ids.Tid.to_int r.Log_record.tid;
      kind_tag;
      oid;
      version;
      r.Log_record.size;
      Time.to_us r.Log_record.timestamp;
    ]

let seal payload = { payload; stamp = checksum payload }
let corrupt_seal payload = { payload; stamp = lnot (checksum payload) }
let seal_valid s = s.stamp = checksum s.payload

type image = {
  blocks : sealed list list;
  stable : El_disk.Stable_db.t;
  reference : (Ids.Oid.t * int) list;
  crash_time : Time.t;
}

let crash engine manager =
  let module M = El_core.El_manager in
  let durable = M.durable_blocks manager in
  let blocks =
    List.map
      (fun (db : M.durable_block) ->
        match db.M.db_torn_prefix with
        | None -> List.map seal db.M.db_records
        | Some k ->
          (* The torn write persisted the first [k] records intact;
             the suffix hit the platter garbled, so its checksums
             cannot validate. *)
          List.mapi
            (fun i r -> if i < k then seal r else corrupt_seal r)
            db.M.db_records)
      durable
  in
  let reference =
    let acked = M.committed_reference manager in
    (* The manager's reference tracks ACKED commits, but the
       durability point is the platter: a COMMIT record that persisted
       inside a torn prefix commits its transaction even though the
       block never completed and the ack never fired.  (The channel is
       FIFO, so every data record such a transaction logged is in an
       earlier — completed — block or earlier in the same prefix:
       recovering it whole is always possible.)  Fold those
       transactions' durable writes into the ground truth. *)
    let torn_committed = Hashtbl.create 4 in
    List.iter
      (fun (db : M.durable_block) ->
        match db.M.db_torn_prefix with
        | None -> ()
        | Some k ->
          List.iteri
            (fun i (r : Log_record.t) ->
              if i < k then
                match r.Log_record.kind with
                | Log_record.Commit ->
                  Hashtbl.replace torn_committed
                    (Ids.Tid.to_int r.Log_record.tid)
                    ()
                | Log_record.Begin | Log_record.Abort | Log_record.Data _ ->
                  ())
            db.M.db_records)
      durable;
    if Hashtbl.length torn_committed = 0 then acked
    else begin
      let best = Ids.Oid.Table.create 64 in
      List.iter
        (fun (db : M.durable_block) ->
          let persisted =
            match db.M.db_torn_prefix with
            | Some k -> k
            | None -> List.length db.M.db_records
          in
          List.iteri
            (fun i (r : Log_record.t) ->
              if i < persisted then
                match r.Log_record.kind with
                | Log_record.Data { oid; version }
                  when Hashtbl.mem torn_committed
                         (Ids.Tid.to_int r.Log_record.tid) -> (
                  match Ids.Oid.Table.find_opt best oid with
                  | Some v when v >= version -> ()
                  | Some _ | None -> Ids.Oid.Table.replace best oid version)
                | _ -> ())
            db.M.db_records)
        durable;
      let seen = Ids.Oid.Table.create 64 in
      let merged =
        List.map
          (fun (oid, v) ->
            Ids.Oid.Table.replace seen oid ();
            match Ids.Oid.Table.find_opt best oid with
            | Some w when w > v -> (oid, w)
            | Some _ | None -> (oid, v))
          acked
      in
      Ids.Oid.Table.fold
        (fun oid w acc ->
          if Ids.Oid.Table.mem seen oid then acc else (oid, w) :: acc)
        best merged
    end
  in
  {
    blocks;
    stable = El_disk.Stable_db.copy (M.stable manager);
    reference;
    crash_time = El_sim.Engine.now engine;
  }

type result = {
  recovered : El_disk.Stable_db.t;
  committed_tids : Ids.Tid.t list;
  records_scanned : int;
  redo_applied : int;
  redo_skipped : int;
  out_of_range : int;
  torn_blocks : int;
  torn_records : int;
}

(* A block is valid up to its first failing checksum: writes are
   sequential within a block, so a torn write garbles a suffix, and
   anything past the first bad stamp is untrustworthy even if a later
   stamp happens to validate. *)
let valid_prefix sealed_block =
  let rec take acc n = function
    | s :: rest when seal_valid s -> take (s.payload :: acc) n rest
    | rest -> (List.rev acc, List.length rest + n)
  in
  take [] 0 sealed_block

(* The pass every recovery shares: [records] are the trusted records in
   scan order, each block already cut at its first bad checksum, and
   [recovered] is a private copy of the stable version to redo onto.
   [dropped] counts the install facts already refused for naming an
   oid outside the database; committed data records doing the same
   join them instead of being redone. *)
let replay ?obs ~recovered ~dropped ~crash_time ~torn_blocks ~torn_records
    records =
  (* Pass 1 within the single scan: the committed transaction set is
     known once every record has been seen, so we fold the scan into a
     table first and then redo — still one read of the log. *)
  let committed = Ids.Tid.Table.create 1024 in
  let scanned = ref 0 in
  List.iter
    (fun (r : Log_record.t) ->
      incr scanned;
      match r.kind with
      | Log_record.Commit -> Ids.Tid.Table.replace committed r.tid ()
      | Log_record.Begin | Log_record.Abort | Log_record.Data _ -> ())
    records;
  let applied = ref 0 in
  let skipped = ref 0 in
  let out_of_range = ref dropped in
  List.iter
    (fun (r : Log_record.t) ->
      match r.kind with
      | Log_record.Data { oid; version } when Ids.Tid.Table.mem committed r.tid
        ->
        let newer =
          match El_disk.Stable_db.version recovered oid with
          | Some v -> version > v
          | None -> true
        in
        if not (El_disk.Stable_db.in_range recovered oid) then
          incr out_of_range
        else if newer then begin
          El_disk.Stable_db.apply recovered oid ~version;
          incr applied
        end
        else incr skipped
      | Log_record.Data _ | Log_record.Begin | Log_record.Commit
      | Log_record.Abort ->
        incr skipped)
    records;
  (match obs with
  | None -> ()
  | Some o ->
    (* Recovery happens conceptually at the crash instant; stamping
       the scan there keeps the trace timeline consistent even when
       the image is replayed later (or never) in wall-run order. *)
    El_obs.Obs.emit_at o ~at:crash_time El_obs.Event.Recovery
      (El_obs.Event.Recovery_scan
         { records = !scanned; applied = !applied; skipped = !skipped });
    if torn_blocks > 0 then
      El_obs.Obs.emit_at o ~at:crash_time El_obs.Event.Recovery
        (El_obs.Event.Torn_discard
           { blocks = torn_blocks; records = torn_records }));
  {
    recovered;
    committed_tids =
      Ids.Tid.Table.fold (fun tid () acc -> tid :: acc) committed [];
    records_scanned = !scanned;
    redo_applied = !applied;
    redo_skipped = !skipped;
    out_of_range = !out_of_range;
    torn_blocks;
    torn_records;
  }

let recover ?obs image =
  let torn_blocks = ref 0 in
  let torn_records = ref 0 in
  let records =
    List.concat_map
      (fun block ->
        let kept, discarded = valid_prefix block in
        if discarded > 0 then begin
          incr torn_blocks;
          torn_records := !torn_records + discarded
        end;
        kept)
      image.blocks
  in
  replay ?obs
    ~recovered:(El_disk.Stable_db.copy image.stable)
    ~dropped:0 ~crash_time:image.crash_time ~torn_blocks:!torn_blocks
    ~torn_records:!torn_records records

(* ---- recovery from a store image ---- *)

(* A discarded store entry decoded to nothing — the scan already
   established its checksum failed, so any corrupt seal stands in for
   it; recovery only counts it as torn. *)
let discarded_placeholder =
  Log_record.abort ~tid:(Ids.Tid.of_int 0) ~size:1 ~timestamp:Time.zero

let image_of_scan ~num_objects ?(reference = [])
    (s : El_store.Log_store.scan) =
  let blocks =
    List.map
      (fun (b : El_store.Log_store.block) ->
        List.map seal b.El_store.Log_store.sb_records
        @ List.init b.El_store.Log_store.sb_discarded (fun _ ->
              corrupt_seal discarded_placeholder))
      s.El_store.Log_store.s_blocks
  in
  {
    blocks;
    stable = fst (El_disk.Stable_db.of_facts ~num_objects s.s_stable);
    reference;
    crash_time = Time.zero;
  }

(* The scan already cut every block at its first bad checksum, so its
   records are trusted as they stand and its discarded entries are only
   counted — never materialized as seals, which keeps the work bounded
   even when a hostile header claims 2^40 missing entries. *)
let recover_scan ?obs ~num_objects (s : El_store.Log_store.scan) =
  let torn_blocks, torn_records =
    List.fold_left
      (fun (blocks, records) (b : El_store.Log_store.block) ->
        if b.sb_discarded > 0 then (blocks + 1, records + b.sb_discarded)
        else (blocks, records))
      (0, 0) s.s_blocks
  in
  let recovered, dropped = El_disk.Stable_db.of_facts ~num_objects s.s_stable in
  replay ?obs ~recovered ~dropped ~crash_time:Time.zero ~torn_blocks
    ~torn_records
    (List.concat_map (fun (b : El_store.Log_store.block) -> b.sb_records)
       s.s_blocks)

let recover_store ?obs ?upto ~num_objects backend =
  recover_scan ?obs ~num_objects (El_store.Log_store.scan ?upto backend)

type audit = {
  ok : bool;
  missing : (Ids.Oid.t * int) list;
  spurious : (Ids.Oid.t * int) list;
}

let audit image result =
  let reference = Ids.Oid.Table.create 1024 in
  List.iter
    (fun (oid, v) -> Ids.Oid.Table.replace reference oid v)
    image.reference;
  let missing =
    List.filter
      (fun (oid, v) ->
        match El_disk.Stable_db.version result.recovered oid with
        | Some w -> w <> v
        | None -> true)
      image.reference
  in
  let spurious =
    List.filter
      (fun (oid, v) ->
        match Ids.Oid.Table.find_opt reference oid with
        | Some w -> w <> v
        | None -> true)
      (El_disk.Stable_db.snapshot result.recovered)
  in
  { ok = missing = [] && spurious = []; missing; spurious }

let pp_audit ppf a =
  if a.ok then Format.pp_print_string ppf "recovery audit: OK"
  else
    Format.fprintf ppf
      "recovery audit: FAILED (%d committed updates missing, %d spurious)"
      (List.length a.missing) (List.length a.spurious)
