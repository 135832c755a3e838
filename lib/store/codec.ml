open El_model

type entry =
  | Record of Log_record.t
  | Stable of { oid : Ids.Oid.t; version : int }

let entry_bytes = 49
let header_bytes = 52

type header = {
  h_epoch : int;
  h_gen : int;
  h_slot : int;
  h_seq : int;
  h_count : int;
}

let magic = "ELSG"

let fnv1a_64 b ~pos ~len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

let tag_of_entry = function
  | Stable _ -> 5
  | Record r -> (
    match r.Log_record.kind with
    | Log_record.Begin -> 1
    | Log_record.Commit -> 2
    | Log_record.Abort -> 3
    | Log_record.Data _ -> 4)

let encode_entry_into ?(corrupt = false) b ~pos e =
  if Bytes.length b - pos < entry_bytes then
    invalid_arg "El_store.Codec.encode_entry_into: short buffer";
  Bytes.set b pos (Char.chr (tag_of_entry e));
  let tid, oid, version, size, ts =
    match e with
    | Stable { oid; version } -> (0, Ids.Oid.to_int oid, version, 0, 0)
    | Record r ->
      let oid, version =
        match r.Log_record.kind with
        | Log_record.Data { oid; version } -> (Ids.Oid.to_int oid, version)
        | _ -> (0, 0)
      in
      ( Ids.Tid.to_int r.Log_record.tid,
        oid,
        version,
        r.Log_record.size,
        Time.to_us r.Log_record.timestamp )
  in
  Bytes.set_int64_le b (pos + 1) (Int64.of_int tid);
  Bytes.set_int64_le b (pos + 9) (Int64.of_int oid);
  Bytes.set_int64_le b (pos + 17) (Int64.of_int version);
  Bytes.set_int64_le b (pos + 25) (Int64.of_int size);
  Bytes.set_int64_le b (pos + 33) (Int64.of_int ts);
  let cksum = fnv1a_64 b ~pos ~len:41 in
  let cksum = if corrupt then Int64.logxor cksum 1L else cksum in
  Bytes.set_int64_le b (pos + 41) cksum

let encode_entry ?corrupt e =
  let b = Bytes.make entry_bytes '\000' in
  encode_entry_into ?corrupt b ~pos:0 e;
  b

let decode_entry b ~pos =
  if Bytes.length b - pos < entry_bytes then
    invalid_arg "El_store.Codec.decode_entry: short buffer";
  let stored = Bytes.get_int64_le b (pos + 41) in
  if not (Int64.equal stored (fnv1a_64 b ~pos ~len:41)) then None
  else begin
    let tag = Char.code (Bytes.get b pos) in
    let i off = Int64.to_int (Bytes.get_int64_le b (pos + off)) in
    let tid = i 1 and oid = i 9 and version = i 17 and size = i 25
    and ts = i 33 in
    (* A checksum-valid entry holding fields no encoder writes
       (negative ids or times, a record without size) is rejected like
       a torn one, so decoding never raises. *)
    if tid < 0 || oid < 0 || ts < 0 then None
    else
      let tid = Ids.Tid.of_int tid and timestamp = Time.of_us ts in
      match tag with
      | 5 -> Some (Stable { oid = Ids.Oid.of_int oid; version })
      | (1 | 2 | 3 | 4) when size <= 0 -> None
      | 1 -> Some (Record (Log_record.begin_ ~tid ~size ~timestamp))
      | 2 -> Some (Record (Log_record.commit ~tid ~size ~timestamp))
      | 3 -> Some (Record (Log_record.abort ~tid ~size ~timestamp))
      | 4 when version >= 0 ->
        Some
          (Record
             (Log_record.data ~tid ~oid:(Ids.Oid.of_int oid) ~version ~size
                ~timestamp))
      | _ -> None
  end

let encode_header_into b ~pos h =
  if Bytes.length b - pos < header_bytes then
    invalid_arg "El_store.Codec.encode_header_into: short buffer";
  Bytes.blit_string magic 0 b pos 4;
  Bytes.set_int64_le b (pos + 4) (Int64.of_int h.h_epoch);
  Bytes.set_int64_le b (pos + 12) (Int64.of_int h.h_gen);
  Bytes.set_int64_le b (pos + 20) (Int64.of_int h.h_slot);
  Bytes.set_int64_le b (pos + 28) (Int64.of_int h.h_seq);
  Bytes.set_int64_le b (pos + 36) (Int64.of_int h.h_count);
  Bytes.set_int64_le b (pos + 44) (fnv1a_64 b ~pos ~len:44)

let encode_header h =
  let b = Bytes.make header_bytes '\000' in
  encode_header_into b ~pos:0 h;
  b

(* The magic read as one little-endian word, so matching it allocates
   nothing. *)
let magic_le = Bytes.get_int32_le (Bytes.of_string magic) 0

(* Counts above this would overflow the segment's byte length. *)
let max_count = (max_int - header_bytes) / entry_bytes

let decode_header b ~pos =
  if Bytes.length b - pos < header_bytes then
    invalid_arg "El_store.Codec.decode_header: short buffer";
  if not (Int32.equal (Bytes.get_int32_le b pos) magic_le) then None
  else if
    not
      (Int64.equal
         (Bytes.get_int64_le b (pos + 44))
         (fnv1a_64 b ~pos ~len:44))
  then None
  else
    let i off = Int64.to_int (Bytes.get_int64_le b (pos + off)) in
    let h_count = i 36 in
    if h_count < 0 || h_count > max_count then None
    else
      Some
        { h_epoch = i 4; h_gen = i 12; h_slot = i 20; h_seq = i 28; h_count }
