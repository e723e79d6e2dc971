(* The benchmark's own code: the replay driver, its span ledger and the
   correctness gate. *)

open Perfbench

let config ?(arrangement = Replay.Live) ?(kind = Replay.Ycsb_t) ?wal
    ?(txns = 400) () =
  {
    Replay.kind;
    keys = 256;
    theta = (if kind = Replay.Retwis then 0.9 else 0.0);
    seed = 5;
    txns;
    arrangement;
    wal;
  }

let wal_dir () =
  ( Filename.concat (Sys.getcwd ()) (Printf.sprintf "wal-%d" (Unix.getpid ())),
    Mk_durable.Wal.Every 64 )

let traced cfg =
  let ledger = Ledger.create ~capacity:(cfg.Replay.txns * 128) in
  (Replay.run ~ledger cfg, ledger)

let passes_gate (r : Replay.result) =
  Gate.check ~what:"replay" ~submitted:r.submitted ~acked:r.acked
    ~committed:r.committed
  = []

let test_history_serializable () =
  List.iter
    (fun cfg ->
      let r = Replay.run cfg in
      Alcotest.(check int) "every txn committed" cfg.Replay.txns r.committed_count;
      Alcotest.(check bool) "checker accepts" true (r.checker = Ok ());
      Alcotest.(check bool) "gate passes" true (passes_gate r))
    [
      config ();
      config ~kind:Replay.Retwis ~wal:(wal_dir ()) ();
      config ~arrangement:Replay.Cluster ~txns:100 ();
    ]

let test_children_inside_parents () =
  List.iter
    (fun cfg ->
      let _, ledger = traced cfg in
      Alcotest.(check bool) "spans recorded" true (Ledger.length ledger > 0);
      Alcotest.(check int) "nesting violations" 0
        (Ledger.nesting_violations ledger))
    [
      config ~kind:Replay.Retwis ~wal:(wal_dir ()) ();
      config ~arrangement:Replay.Cluster ~txns:100 ();
    ]

let test_nesting_detects_overrun () =
  (* A parent closed before its child is the shape the check exists to
     reject. *)
  let l = Ledger.create ~capacity:4 in
  let parent = Ledger.enter l Ledger.Protocol ~tid:0 in
  let child = Ledger.enter l Ledger.Mailbox ~tid:0 in
  Ledger.leave l parent;
  Unix.sleepf 0.001;
  Ledger.leave l child;
  Alcotest.(check bool) "overrun found" true (Ledger.nesting_violations l > 0)

let test_self_time_excludes_children () =
  let l = Ledger.create ~capacity:4 in
  let outer = Ledger.enter l Ledger.Shim ~tid:0 in
  let inner = Ledger.enter l Ledger.Codec ~tid:0 in
  Unix.sleepf 0.002;
  Ledger.leave l inner;
  Ledger.leave l outer;
  let shim = Ledger.stats l Ledger.Shim and codec = Ledger.stats l Ledger.Codec in
  Alcotest.(check bool) "codec holds the sleep" true (codec.self_ns >= 2_000_000);
  Alcotest.(check bool) "shim self excludes it" true (shim.self_ns < 1_000_000)

let calls ledger = List.map (fun l -> (Ledger.stats ledger l).Ledger.calls) Ledger.layers

let test_calls_repeat () =
  List.iter
    (fun cfg ->
      let _, a = traced cfg and _, b = traced cfg in
      Alcotest.(check (list int)) "same calls per layer" (calls a) (calls b))
    [ config ~kind:Replay.Retwis (); config ~arrangement:Replay.Cluster ~txns:50 () ]

let test_bypassed_layers () =
  let zero ledger layers =
    List.iter
      (fun l ->
        Alcotest.(check int) (Ledger.layer_name l) 0 (Ledger.stats ledger l).calls)
      layers
  in
  let _, live = traced (config ()) in
  zero live [ Ledger.Codec; Ledger.Shim; Ledger.Wal ];
  let _, cluster = traced (config ~arrangement:Replay.Cluster ~txns:50 ()) in
  zero cluster [ Ledger.Mailbox; Ledger.Wal ];
  let _, durable = traced (config ~kind:Replay.Retwis ~wal:(wal_dir ()) ()) in
  Alcotest.(check int) "one append per replica per txn" (3 * 400)
    (Ledger.stats durable Ledger.Wal).calls

let test_lost_ack_fails_gate () =
  let r = Replay.run (config ()) in
  Alcotest.(check bool) "history serializable" true (r.checker = Ok ());
  Alcotest.(check bool) "gate reports failure" true
    (Gate.check ~what:"replay" ~submitted:r.submitted ~acked:(r.acked - 1)
       ~committed:r.committed
    <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "replay",
        [
          Alcotest.test_case "history passes the checker" `Quick
            test_history_serializable;
          Alcotest.test_case "calls repeat per seed" `Quick test_calls_repeat;
          Alcotest.test_case "bypassed layers read zero" `Quick
            test_bypassed_layers;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "children inside parents" `Quick
            test_children_inside_parents;
          Alcotest.test_case "overrun detected" `Quick test_nesting_detects_overrun;
          Alcotest.test_case "self time excludes children" `Quick
            test_self_time_excludes_children;
        ] );
      ( "gate",
        [ Alcotest.test_case "planted lost txn fails" `Quick test_lost_ack_fails_gate ]
      );
    ]
