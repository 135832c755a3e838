(* Child process for the serve crash tests: speaks the el-sim serve
   line protocol over stdin/stdout against the image given in argv.
   A separate executable because the test runner spawns domains
   (lib/par), after which Unix.fork is unavailable — the tests
   create_process this instead. *)

let () =
  let image = Sys.argv.(1) in
  let flag name =
    Array.exists (fun a -> a = name)
      (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
  in
  let fresh = flag "--fresh" in
  let group_fsync = flag "--group-fsync" in
  (* [--fw N] / [--hybrid a,b,...] pick the manager, as el-sim serve's
     flags do; neither means the default EL plant. *)
  let value name =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 2
  in
  let sizes s = Array.of_list (List.map int_of_string (String.split_on_char ',' s)) in
  let default = El_serve.Serve.default_config ~image in
  let kind =
    match (value "--fw", value "--hybrid") with
    | Some n, _ -> El_harness.Experiment.Firewall (int_of_string n)
    | None, Some qs -> El_harness.Experiment.Hybrid (sizes qs)
    | None, None -> default.El_serve.Serve.kind
  in
  let t =
    El_serve.Serve.start
      {
        default with
        El_serve.Serve.fresh;
        kind;
        num_objects = 1_000;
        group_fsync;
      }
  in
  El_serve.Serve.serve_channel t stdin stdout;
  El_serve.Serve.close t
