open El_model

type t = { num_objects : int; versions : int Ids.Oid.Table.t }

let create ~num_objects =
  if num_objects <= 0 then invalid_arg "Stable_db.create: no objects";
  { num_objects; versions = Ids.Oid.Table.create 1024 }

let in_range t oid =
  let i = Ids.Oid.to_int oid in
  i >= 0 && i < t.num_objects

let apply t oid ~version =
  if not (in_range t oid) then invalid_arg "Stable_db.apply: oid out of range";
  match Ids.Oid.Table.find_opt t.versions oid with
  | Some v when v >= version -> ()
  | Some _ | None -> Ids.Oid.Table.replace t.versions oid version

let of_facts ~num_objects facts =
  if num_objects <= 0 then invalid_arg "Stable_db.of_facts: no objects";
  (* sized for every fact an oid of its own, so the table never grows *)
  let size = min num_objects (Array.length facts) in
  let t = { num_objects; versions = Ids.Oid.Table.create size } in
  let outside = Ids.Oid.Table.create 8 in
  Array.iter
    (fun (oid, version) ->
      if in_range t oid then apply t oid ~version
      else Ids.Oid.Table.replace outside oid ())
    facts;
  (t, Ids.Oid.Table.length outside)

let version t oid = Ids.Oid.Table.find_opt t.versions oid
let objects_written t = Ids.Oid.Table.length t.versions

let snapshot t =
  Ids.Oid.Table.fold (fun oid v acc -> (oid, v) :: acc) t.versions []

let copy t =
  { num_objects = t.num_objects; versions = Ids.Oid.Table.copy t.versions }

let equal a b =
  Ids.Oid.Table.length a.versions = Ids.Oid.Table.length b.versions
  && Ids.Oid.Table.fold
       (fun oid v acc ->
         acc && match Ids.Oid.Table.find_opt b.versions oid with
           | Some w -> v = w
           | None -> false)
       a.versions true
