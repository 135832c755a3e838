open El_model

type sync_mode = Immediate | Grouped | Manual

type t = {
  backend : Backend.t;
  mutable epoch : int;
  mutable seq : int;
  mutable write_off : int;
  mutable scratch : Bytes.t;  (* reused segment-encoding buffer *)
  mutable sync_mode : sync_mode;
  mutable dirty : bool;  (* bytes written since the last barrier *)
  mutable sync_scheduled : bool;  (* a group sync is already queued *)
  mutable group_syncs : int;  (* barriers issued by {!sync} *)
}

let backend t = t.backend
let epoch t = t.epoch
let position t = t.seq

let torn_keep ~count f =
  if count = 0 then 0 else min (count - 1) (int_of_float (f *. float_of_int count))

let segment_bytes count = Codec.header_bytes + (count * Codec.entry_bytes)

let sync_mode t = t.sync_mode
let dirty t = t.dirty
let group_syncs t = t.group_syncs

let sync t =
  if t.dirty then begin
    Backend.barrier t.backend;
    t.dirty <- false;
    t.group_syncs <- t.group_syncs + 1
  end

let set_sync_mode t mode =
  (* entering Immediate must not strand written-but-unsynced bytes *)
  if mode = Immediate then sync t;
  t.sync_mode <- mode

let request_group_sync t ~schedule =
  if t.sync_mode = Grouped && t.dirty && not t.sync_scheduled then begin
    t.sync_scheduled <- true;
    schedule (fun () ->
        t.sync_scheduled <- false;
        sync t)
  end

let append_segment t ~gen ~slot entries ~corrupt_from =
  let count = List.length entries in
  let len = segment_bytes count in
  if Bytes.length t.scratch < len then
    t.scratch <- Bytes.create (max len (2 * Bytes.length t.scratch));
  let header =
    {
      Codec.h_epoch = t.epoch;
      h_gen = gen;
      h_slot = slot;
      h_seq = t.seq;
      h_count = count;
    }
  in
  Codec.encode_header_into t.scratch ~pos:0 header;
  List.iteri
    (fun i e ->
      let corrupt = i >= corrupt_from in
      Codec.encode_entry_into ~corrupt t.scratch
        ~pos:(Codec.header_bytes + (i * Codec.entry_bytes))
        e)
    entries;
  Backend.pwrite t.backend ~off:t.write_off ~len t.scratch;
  (match t.sync_mode with
  | Immediate -> Backend.barrier t.backend
  | Grouped | Manual -> t.dirty <- true);
  t.seq <- t.seq + 1;
  t.write_off <- t.write_off + len

let append_block t ~gen ~slot ?torn_suffix records =
  match records with
  | [] -> ()
  | _ ->
    let entries = List.map (fun r -> Codec.Record r) records in
    let count = List.length entries in
    let corrupt_from =
      match torn_suffix with None -> count | Some n -> max 0 (count - n)
    in
    append_segment t ~gen ~slot entries ~corrupt_from

let append_stable t ~oid ~version =
  append_segment t ~gen:(-1) ~slot:0
    [ Codec.Stable { oid; version } ]
    ~corrupt_from:1

type block = {
  sb_epoch : int;
  sb_gen : int;
  sb_slot : int;
  sb_seq : int;
  sb_records : Log_record.t list;
  sb_discarded : int;
}

type scan = {
  s_blocks : block list;
  s_stable : (Ids.Oid.t * int) array;
  s_segments : int;
  s_stale_blocks : int;
  s_torn_tail : bool;
  s_end : int;
  s_max_epoch : int;
  s_max_seq : int;
}

(* Slot identity for dedup: [(epoch, gen, slot)], hashed without the
   polymorphic hash. *)
module Key = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((e1, g1, s1) : t) (e2, g2, s2) = e1 = e2 && g1 = g2 && s1 = s2
  let hash (e, g, s) = (((e * 65599) + g) * 65599) + s
end)

(* Decodes up to [avail] entries at [pos], cutting at the first bad
   checksum — the valid-prefix rule of the torn-write model.  Returns
   the valid entries in order and how many of the [avail] were cut. *)
let decode_entries img pos avail =
  let rec go i acc =
    if i >= avail then (List.rev acc, 0)
    else
      match Codec.decode_entry img ~pos:(pos + (i * Codec.entry_bytes)) with
      | None -> (List.rev acc, avail - i)
      | Some e -> go (i + 1) (e :: acc)
  in
  go 0 []

(* Scans the first [len] bytes of [img] in two steps.  The header walk
   verifies every header, collects stable segments' facts as it meets
   them, and keeps only the newest log segment per key; then only
   those survivors' entries are decoded.  A superseded segment adds
   nothing to the result beyond its count, so its entries are never
   read. *)
let scan_bytes ?upto img ~len =
  let included (h : Codec.header) =
    match upto with None -> true | Some n -> h.h_seq < n
  in
  (* every install fact in image order: [facts.(0 .. n_facts - 1)] *)
  let facts = ref [||] and n_facts = ref 0 in
  (* appends a stable segment's valid entry prefix *)
  let rec take_stable pos avail =
    if avail > 0 then
      match Codec.decode_entry img ~pos with
      | None -> ()
      | Some e ->
        (match e with
        | Codec.Stable { oid; version } ->
          let fact = (oid, version) in
          if !n_facts = Array.length !facts then
            facts := Array.append !facts (Array.make (max 64 !n_facts) fact);
          !facts.(!n_facts) <- fact;
          incr n_facts
        | Codec.Record _ -> ());
        take_stable (pos + Codec.entry_bytes) (avail - 1)
  in
  (* newest log segment per key: its header, entry offset and how many
     of its entries the image holds *)
  let newest = Key.create 1024 in
  let log_segments = ref 0 in
  let segments = ref 0 in
  let torn_tail = ref false in
  let s_end = ref 0 in
  let max_epoch = ref (-1) in
  let max_seq = ref (-1) in
  let off = ref 0 in
  let stop = ref false in
  while not !stop do
    if len - !off < Codec.header_bytes then begin
      if len - !off > 0 then torn_tail := true;
      stop := true
    end
    else
      match Codec.decode_header img ~pos:!off with
      | None ->
        torn_tail := true;
        stop := true
      | Some h ->
        let body = !off + Codec.header_bytes in
        let full = len - body >= h.h_count * Codec.entry_bytes in
        let avail =
          if full then h.h_count else (len - body) / Codec.entry_bytes
        in
        if not full then torn_tail := true;
        if included h then begin
          incr segments;
          if h.h_epoch > !max_epoch then max_epoch := h.h_epoch;
          if h.h_seq > !max_seq then max_seq := h.h_seq;
          if h.h_gen < 0 then take_stable body avail
          else begin
            incr log_segments;
            let key = (h.h_epoch, h.h_gen, h.h_slot) in
            match Key.find_opt newest key with
            | Some (prev, _, _) when prev.Codec.h_seq > h.h_seq -> ()
            | Some _ | None -> Key.replace newest key (h, body, avail)
          end
        end;
        if full then begin
          off := body + (h.h_count * Codec.entry_bytes);
          s_end := !off
        end
        else stop := true
  done;
  (* In-place slot semantics: only the newest segment per key
     survives, so only its entries are worth decoding. *)
  let blocks =
    Key.fold
      (fun _ ((h : Codec.header), body, avail) acc ->
        let entries, cut = decode_entries img body avail in
        {
          sb_epoch = h.h_epoch;
          sb_gen = h.h_gen;
          sb_slot = h.h_slot;
          sb_seq = h.h_seq;
          sb_records =
            List.filter_map
              (function Codec.Record r -> Some r | Codec.Stable _ -> None)
              entries;
          sb_discarded = cut + (h.h_count - avail);
        }
        :: acc)
      newest []
    |> List.sort (fun a b -> Int.compare a.sb_seq b.sb_seq)
  in
  {
    s_blocks = blocks;
    s_stable = Array.sub !facts 0 !n_facts;
    s_segments = !segments;
    s_stale_blocks = !log_segments - Key.length newest;
    s_torn_tail = !torn_tail;
    s_end = !s_end;
    s_max_epoch = !max_epoch;
    s_max_seq = !max_seq;
  }

let read_image backend = Backend.pread backend ~off:0 ~len:(Backend.size backend)

let scan ?upto backend =
  let img = read_image backend in
  scan_bytes ?upto img ~len:(Bytes.length img)

let make backend ~epoch ~seq ~write_off ~sync_mode =
  {
    backend;
    epoch;
    seq;
    write_off;
    scratch = Bytes.create (segment_bytes 64);
    sync_mode;
    dirty = false;
    sync_scheduled = false;
    group_syncs = 0;
  }

let create ?(sync_mode = Immediate) backend =
  Backend.truncate backend ~len:0;
  make backend ~epoch:0 ~seq:0 ~write_off:0 ~sync_mode

let attach_with_scan ?(sync_mode = Immediate) backend =
  let img = read_image backend in
  let s = scan_bytes img ~len:(Bytes.length img) in
  let t =
    make backend ~epoch:(s.s_max_epoch + 1) ~seq:(s.s_max_seq + 1)
      ~write_off:s.s_end ~sync_mode
  in
  if not s.s_torn_tail then (t, s)
  else begin
    (* Cut the torn tail away; the bytes before the cut are already in
       memory, so the post-truncate view needs no second read. *)
    Backend.truncate backend ~len:s.s_end;
    (t, scan_bytes img ~len:s.s_end)
  end

let attach ?sync_mode backend = fst (attach_with_scan ?sync_mode backend)
