let check ~what ~submitted ~acked ~committed =
  let lost =
    if submitted <> acked then
      [ Printf.sprintf "%s: %d submitted but %d acked" what submitted acked ]
    else []
  in
  match Mk_harness.Checker.check committed with
  | Ok () -> lost
  | Error v ->
      lost
      @ [
          Format.asprintf "%s: not serializable: %a" what
            Mk_harness.Checker.pp_violation v;
        ]
