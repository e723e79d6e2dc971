(* The benchmark's runner: one workload, one seed, one run.

     main.exe --workload ycsbt-closed --seed 1 --seconds 30 --trace 0 \
       --node-exe _build/default/bin/meerkat_node.exe --out-dir .perfbench

   --trace 0 runs the real backend untraced and reports the end-to-end
   metrics; --trace 1 reports the per-layer ledger of the replay driver
   plus the counts read from one backend run. Every run passes the
   correctness gate; the last stdout line is the JSON result, and the
   exit status is 1 when the gate found a problem. *)

open Perfbench

type workload = Live of Live_bench.workload | Cluster_ycsbt

let workloads =
  [
    ("ycsbt-closed", Live Live_bench.Ycsbt_closed);
    ("retwis-open", Live Live_bench.Retwis_open);
    ("cluster-ycsbt", Cluster_ycsbt);
  ]

(* Each run is split into this many independent segments of equal
   length, each with its own set-up (see [end_to_end]). *)
let segments = 12

(* Set-ups timed on their own before each segment; [setup_s] is the
   median of all of them, so it samples the whole run. *)
let setup_probes = 2

(* Transactions the traced replay feeds through the commit path. *)
let replay_txns = function
  | Live Live_bench.Ycsbt_closed -> 20_000
  | Live Live_bench.Retwis_open -> 10_000
  | Cluster_ycsbt -> 4_000

(* Scratch directory for a live run's WAL, under the output directory. *)
let wal_dir ~out_dir tag =
  Filename.concat out_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ()))

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n
let fper n x = if n = 0 then 0.0 else x /. float_of_int n

(* The uniform view of one backend run, whichever backend ran it. *)
type seg = {
  goodput : float;
  p50 : float;
  p99 : float;
  setup : float;
  words : float;  (** Minor words per committed txn. *)
  rss_mb : float;
  submitted : int;
  acked : int;
  committed : int;
  aborted : int;
  fast : int;
  retransmits : int;
  wire_msgs : int;
  wire_bytes : int;
  wal_appends : int;
  wal_fsyncs : int;
  problems : string list;
  steal : float;  (** Share of host CPU time the hypervisor stole. *)
}

let backend_seg w ~node_exe ~out_dir ~seed ~seconds =
  match w with
  | Live lw ->
      let r = Live_bench.run lw ~seed ~seconds ~data_dir:(wal_dir ~out_dir "wal") in
      let p = r.Live_bench.report in
      {
        goodput = p.throughput;
        p50 = p.p50_us;
        p99 = p.p99_us;
        setup = r.setup_s;
        words = per p.committed_count p.gc_minor_words;
        rss_mb = float_of_int (Host.peak_rss_kb ()) /. 1024.0;
        submitted = p.submitted;
        acked = p.acked;
        committed = p.committed_count;
        aborted = p.aborted;
        fast = p.fast_path;
        retransmits = p.retransmits;
        wire_msgs = 0;
        wire_bytes = 0;
        wal_appends = p.wal_appends;
        wal_fsyncs = p.wal_fsyncs;
        problems = r.problems;
        steal = 0.0;
      }
  | Cluster_ycsbt ->
      let r = Cluster_bench.run ~node_exe ~seed ~seconds in
      let d = r.Cluster_bench.result in
      let sum f = Array.fold_left (fun acc n -> acc + f n) 0 r.nodes in
      let rss_kb =
        sum (fun n -> n.Cluster_bench.peak_rss_kb) + Host.peak_rss_kb ()
      in
      {
        goodput = d.throughput;
        p50 = d.p50_us;
        p99 = d.p99_us;
        setup = r.setup_s;
        words = fper d.committed_count r.minor_words;
        rss_mb = float_of_int rss_kb /. 1024.0;
        submitted = d.submitted;
        acked = d.acked;
        committed = d.committed_count;
        aborted = d.aborted;
        fast = d.fast_path;
        retransmits = d.retransmits;
        wire_msgs = d.wire_msgs_tx + d.wire_msgs_rx;
        wire_bytes = sum (fun n -> n.Cluster_bench.bytes);
        wal_appends = 0;
        wal_fsyncs = 0;
        problems = r.problems;
        steal = 0.0;
      }

let backend_run w ~node_exe ~out_dir ~seed ~seconds =
  (* Start every run from a collected heap, so neither its set-up nor
     its timing pays for the previous run's garbage. *)
  Gc.full_major ();
  Host.reset_peak_rss ();
  let steal0, all0 = Host.cpu_ticks () in
  let seg = backend_seg w ~node_exe ~out_dir ~seed ~seconds in
  let steal1, all1 = Host.cpu_ticks () in
  { seg with steal = per (all1 - all0) (steal1 - steal0) }

let sum_segs f segs = List.fold_left (fun acc s -> acc + f s) 0 segs

(* A transaction fails when its client never learns the outcome. An
   OCC abort is an outcome the protocol returns by design, so it counts
   as done; [commit_frac] and [failed_frac] report how many abort. *)
let lost s = s.submitted - s.acked

let setup_probe w ~node_exe ~out_dir ~seed =
  Gc.full_major ();
  match w with
  | Live lw -> Live_bench.setup_probe lw ~seed ~data_dir:(wal_dir ~out_dir "wal")
  | Cluster_ycsbt -> Cluster_bench.setup_probe ~node_exe

(* The hypervisor of a shared host steals CPU in episodes that last
   from seconds to minutes, and every figure worsens with the share
   stolen: on the 2-core host, p50 of an open loop at 4,000 txn/s rose
   from about 400 us at no steal to over 700 us at 7%. So a run counts
   the half of its segments during which the least CPU was stolen. The
   choice rests on the host's steal counter alone, never on the
   figures, so a change that slows most segments still shows. Each
   figure is the median over the counted segments; [commit_frac] is
   taken over them together. A segment's p50 is a bucket of the
   runtime's latency histogram, about 4% wide, so [p50_us] is the mean
   of the counted segments' p50s: segments that fall into neighbouring
   buckets then place the figure between them. *)
let counted segs =
  let by_steal = List.stable_sort (fun a b -> Float.compare a.steal b.steal) segs in
  List.filteri (fun i _ -> i < (List.length segs + 1) / 2) by_steal

let end_to_end segs ~setups =
  let segs = counted segs in
  let med f = median (List.map f segs) in
  let submitted = sum_segs (fun s -> s.submitted) segs in
  [
    m "goodput_tps" "1/s" (med (fun s -> s.goodput));
    m "p50_us" "us" (mean (List.map (fun s -> s.p50) segs));
    m "commit_frac" "frac" (per submitted (sum_segs (fun s -> s.committed) segs));
    m "words_per_txn" "words/txn" (med (fun s -> s.words));
    m "rss_mb" "MB" (med (fun s -> s.rss_mb));
    m "setup_s" "s" (median setups);
  ]

let replay_config w ~seed ~out_dir =
  let kind, keys, theta, arrangement, wal =
    match w with
    | Live Live_bench.Ycsbt_closed -> (Replay.Ycsb_t, 65536, 0.0, Replay.Live, None)
    | Live Live_bench.Retwis_open ->
        ( Replay.Retwis,
          16384,
          0.9,
          Replay.Live,
          Some (wal_dir ~out_dir "replay-wal", Mk_durable.Wal.Every 64) )
    | Cluster_ycsbt -> (Replay.Ycsb_t, 65536, 0.0, Replay.Cluster, None)
  in
  {
    Replay.kind;
    keys;
    theta;
    seed;
    txns = replay_txns w;
    arrangement;
    wal;
  }

(* Untraced/traced replay pairs in a traced run, alternating which runs
   first; per-layer times and the replay totals are medians over the
   pairs. *)
let replay_pairs = 5

(* The traced run: the backend once (untraced) for its counts, then the
   replay untraced and traced, [replay_pairs] times. *)
let per_layer w ~name ~seed ~seconds ~node_exe ~out_dir =
  let seg = backend_run w ~node_exe ~out_dir ~seed ~seconds:(seconds /. 2.0) in
  let rcfg = replay_config w ~seed ~out_dir in
  let spans_per_txn = if rcfg.arrangement = Replay.Cluster then 96 else 48 in
  let ledger = Ledger.create ~capacity:(rcfg.txns * spans_per_txn) in
  let pairs =
    List.init replay_pairs (fun k ->
        let plain () = Gc.full_major (); Replay.run rcfg in
        let traced () =
          Gc.full_major ();
          Ledger.clear ledger;
          Replay.run ~ledger rcfg
        in
        let plain, traced =
          if k mod 2 = 0 then
            let p = plain () in
            (p, traced ())
          else
            let t = traced () in
            (plain (), t)
        in
        let st = Ledger.stats ledger in
        (plain, traced, List.map st Ledger.layers,
         Ledger.total_self_ns ledger, Ledger.nesting_violations ledger))
  in
  Ledger.write ledger ~path:(Filename.concat out_dir ("spans-" ^ name ^ ".tsv"));
  let n = rcfg.txns in
  let med f = median (List.map f pairs) in
  let layers =
    List.concat
      (List.mapi
         (fun i l ->
           let stat (_, _, stats, _, _) = List.nth stats i in
           let name = Ledger.layer_name l in
           [
             m (name ^ ".calls_per_txn") "calls/txn"
               (per n (stat (List.hd pairs)).Ledger.calls);
             m (name ^ ".self_ns_per_txn") "ns/txn"
               (med (fun p -> per n (stat p).self_ns));
             m (name ^ ".words_per_txn") "words/txn"
               (med (fun p -> fper n (stat p).self_words));
           ])
         Ledger.layers)
  in
  let elapsed (r : Replay.result) = float_of_int r.elapsed_ns in
  let plain_ns = med (fun (p, _, _, _, _) -> elapsed p) /. float_of_int n in
  let decided = seg.committed + seg.aborted in
  let counts =
    [
      m "protocol.fast_frac" "frac" (per decided seg.fast);
      m "protocol.retransmits_per_txn" "count/txn" (per seg.committed seg.retransmits);
      m "wire.msgs_per_txn" "msgs/txn" (per seg.committed seg.wire_msgs);
      m "wire.bytes_per_txn" "B/txn" (per seg.committed seg.wire_bytes);
      m "wal.appends_per_txn" "count/txn" (per seg.committed seg.wal_appends);
      m "wal.fsyncs_per_txn" "count/txn" (per seg.committed seg.wal_fsyncs);
      m "p99_us" "us" seg.p99;
      m "failed_frac" "frac"
        (per seg.submitted (seg.aborted + seg.submitted - seg.acked));
      m "replay.ns_per_txn" "ns/txn" plain_ns;
      m "live.wait_us" "us" (seg.p50 -. (plain_ns /. 1000.0));
      m "trace.overhead_frac" "frac"
        (med (fun (p, t, _, _, _) -> (elapsed t /. elapsed p) -. 1.0));
      m "ledger.remainder_frac" "frac"
        (med (fun (_, t, _, self, _) -> 1.0 -. (float_of_int self /. elapsed t)));
    ]
  in
  let replay_problems (r : Replay.result) what =
    Gate.check ~what ~submitted:r.submitted ~acked:r.acked ~committed:r.committed
  in
  let problems =
    seg.problems
    @ List.concat_map
        (fun (plain, traced, _, _, nesting) ->
          replay_problems plain "replay"
          @ replay_problems traced "traced replay"
          @
          if nesting = 0 then []
          else [ Printf.sprintf "ledger: %d spans outside their parent" nesting ])
        pairs
  in
  let lost_replay (r : Replay.result) = r.submitted - r.acked in
  ( layers @ counts,
    seg.submitted + (2 * n * replay_pairs),
    lost seg
    + List.fold_left
        (fun acc (p, t, _, _, _) -> acc + lost_replay p + lost_replay t)
        0 pairs,
    problems )

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun r ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.name
             (json_number r.value) r.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref nan in
  let trace = ref 0 and node_exe = ref "" and out_dir = ref ".perfbench" in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " ycsbt-closed | retwis-open | cluster-ycsbt");
      ("--seed", Arg.Set_int seed, " Workload seed");
      ("--seconds", Arg.Set_float seconds, " Measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer ledger");
      ("--node-exe", Arg.Set_string node_exe, " Path to meerkat_node.exe");
      ("--out-dir", Arg.Set_string out_dir, " Where spans and stamped results go");
      ("--commit", Arg.Set_string commit, " Source revision for the host stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if not (!seconds > 0.0) then begin
    prerr_endline "--seconds must be given and positive";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  if w = Cluster_ycsbt && not (Sys.file_exists !node_exe) then begin
    prerr_endline "cluster-ycsbt needs --node-exe";
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let host = Host.metadata ~commit:!commit in
  let measure () =
    if !trace = 0 then begin
      let seg_seconds = !seconds /. float_of_int segments in
      let runs =
        List.init segments (fun k ->
            let setups =
              List.init setup_probes (fun j ->
                  setup_probe w ~node_exe:!node_exe ~out_dir:!out_dir
                    ~seed:((((!seed * segments) + k) * setup_probes) + j))
            in
            let s =
              backend_run w ~node_exe:!node_exe ~out_dir:!out_dir
                ~seed:((!seed * segments) + k) ~seconds:seg_seconds
            in
            Printf.printf
              "segment %d: %.0f txn/s, p50 %.0f us, p99 %.0f us, %d/%d \
               committed, %.0f words/txn, %.1f MB, set-up %.4f s, steal %.3f, \
               probes %s\n"
              k s.goodput s.p50 s.p99 s.committed s.submitted s.words s.rss_mb
              s.setup s.steal
              (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
            (s, setups))
      in
      let segs = List.map fst runs and setups = List.concat_map snd runs in
      ( end_to_end segs ~setups,
        sum_segs (fun s -> s.submitted) segs,
        sum_segs lost segs,
        List.concat_map (fun s -> s.problems) segs )
    end
    else
      per_layer w ~name:!workload ~seed:!seed ~seconds:!seconds
        ~node_exe:!node_exe ~out_dir:!out_dir
  in
  (* A run that cannot finish is reported as failed, not dropped. *)
  let metrics, attempted, failed, problems =
    try measure ()
    with e -> ([], 1, 1, [ "run aborted: " ^ Printexc.to_string e ])
  in
  let correct = problems = [] in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) problems;
  List.iter (fun r -> Printf.printf "%-34s %18.4f %s\n" r.name r.value r.unit_) metrics;
  let result = result_json ~correct ~attempted ~failed metrics in
  Out_channel.with_open_text
    (Filename.concat !out_dir (Printf.sprintf "%s-trace%d.json" !workload !trace))
    (fun oc ->
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"host\": %s, \"result\": %s}\n"
        !workload !seed !seconds host result);
  Printf.printf "host %s\n%s\n%!" host result;
  exit (if correct then 0 else 1)
