module Runtime = Mk_live.Runtime

type workload = Ycsbt_closed | Retwis_open

type run = {
  report : Runtime.report;
  setup_s : float;
  problems : string list;
}

let config workload ~seed ~seconds ~data_dir =
  let base =
    {
      Runtime.default_config with
      server_domains = 1;
      n_replicas = 3;
      coordinators = 1;
      clients = 32;
      duration = Some seconds;
      seed;
    }
  in
  match workload with
  | Ycsbt_closed ->
      { base with keys = 65536; theta = 0.0; workload = Runtime.Ycsb_t }
  | Retwis_open ->
      {
        base with
        keys = 16384;
        theta = 0.9;
        workload = Runtime.Retwis;
        offered_rate = Some 1000.0;
        durable =
          Some { Runtime.dir = data_dir; policy = Mk_durable.Wal.Every 64 };
      }

let timed_run cfg =
  let t0 = Unix.gettimeofday () in
  let report = Runtime.run cfg in
  let setup_s = Unix.gettimeofday () -. t0 -. report.Runtime.wall_seconds in
  (match cfg.durable with
  | Some { dir; _ } ->
      Runtime.remove_data_dir ~dir ~n_replicas:cfg.n_replicas
        ~cores:cfg.server_domains
  | None -> ());
  (report, setup_s)

let setup_probe workload ~seed ~data_dir =
  let cfg = config workload ~seed ~seconds:0.0 ~data_dir in
  snd (timed_run { cfg with duration = None; txns_per_client = 0 })

let run workload ~seed ~seconds ~data_dir =
  let report, setup_s = timed_run (config workload ~seed ~seconds ~data_dir) in
  let problems =
    Gate.check ~what:"live" ~submitted:report.submitted ~acked:report.acked
      ~committed:report.committed
  in
  { report; setup_s; problems }
