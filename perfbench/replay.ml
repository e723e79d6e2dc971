module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Replica = Mk_meerkat.Replica
module Protocol = Mk_meerkat.Protocol
module Batch = Mk_meerkat.Batch
module Quorum = Mk_meerkat.Quorum
module Mailbox = Mk_live.Mailbox
module Codec = Mk_wire.Codec
module Workload = Mk_workload.Workload
module Wal = Mk_durable.Wal
module Walcodec = Mk_durable.Walcodec
module Checker = Mk_harness.Checker

type kind = Ycsb_t | Retwis
type arrangement = Live | Cluster

type config = {
  kind : kind;
  keys : int;
  theta : float;
  seed : int;
  txns : int;
  arrangement : arrangement;
  wal : (string * Wal.policy) option;
}

type result = {
  submitted : int;
  acked : int;
  committed : (Txn.t * Timestamp.t) list;
  committed_count : int;
  aborted : int;
  elapsed_ns : int;
  checker : (unit, Checker.violation) Stdlib.result;
}

let n_replicas = 3

(* Transaction ids rotate over the backends' 32 client ids. *)
let clients = 32

(* The shim arrangement is a functor argument, so the codec spans read
   the ledger and the current transaction from here. *)
let ledger : Ledger.t option ref = ref None
let cur_tid = ref 0
let span layer f = Ledger.span !ledger layer ~tid:!cur_tid f

module Net = Mk_node.Shim.Make (struct
  type msg = int * Codec.t

  let encode_into ~scratch ~out (shard, m) =
    span Codec (fun () -> Codec.encode_shard_into ~scratch ~out ~shard m)

  let decode_at s ~pos = span Codec (fun () -> Codec.decode_shard_at s ~pos)
end)

(* How a transaction's messages travel. Sends happen inside protocol
   actions; [collect_validates] and [apply_write_backs] then run the
   server side and deliver the replies. *)
type transport = {
  read : int -> Timestamp.t;  (** Execute-phase read of one key. *)
  send_validates : Txn.t -> Timestamp.t -> unit;
  collect_validates : (int -> Txn.status -> unit) -> unit;
  send_write_backs : Txn.t -> Timestamp.t -> bool -> unit;
  apply_write_backs : unit -> unit;
  close : unit -> unit;
}

(* ---- Live: mailboxes, with the runtime's batched message shapes --- *)

type server_msg =
  | Validates of { txn : Txn.t; ts : Timestamp.t }
  | Write_backs of { txn : Txn.t; ts : Timestamp.t; commit : bool }

let status_code : Txn.status -> int = function
  | Txn.Validated_ok -> 0
  | Txn.Validated_abort -> 1
  | Txn.Accepted_commit -> 2
  | Txn.Accepted_abort -> 3
  | Txn.Committed -> 4
  | Txn.Aborted -> 5

let status_of_code = function
  | 0 -> Txn.Validated_ok
  | 1 -> Txn.Validated_abort
  | 2 -> Txn.Accepted_commit
  | 3 -> Txn.Accepted_abort
  | 4 -> Txn.Committed
  | _ -> Txn.Aborted

let live_transport replicas =
  let sbox : server_msg Mailbox.t = Mailbox.create ~capacity:1024 in
  (* Coordinator replies: bit r of the mask says lane r holds replica
     r's status code. *)
  let cbox : (int * int) Mailbox.t = Mailbox.create ~capacity:1024 in
  let server = function
    | Validates { txn; ts } ->
        let mask = ref 0 and lanes = ref 0 in
        Array.iteri
          (fun r rep ->
            match
              span Replica_validate (fun () ->
                  Replica.handle_validate rep ~core:0 ~txn ~ts)
            with
            | Some st ->
                mask := !mask lor (1 lsl r);
                lanes := !lanes lor (status_code st lsl (4 * r))
            | None -> ())
          replicas;
        let reply = (!mask, !lanes) in
        span Mailbox (fun () -> Mailbox.push cbox reply)
    | Write_backs { txn; ts; commit } ->
        Array.iter
          (fun rep ->
            ignore
              (span Replica_commit (fun () ->
                   Replica.handle_commit rep ~core:0 ~txn ~ts ~commit)
                : unit option))
          replicas
  in
  let drain_server () =
    ignore (span Mailbox (fun () -> Mailbox.drain sbox ~max:128 server) : int)
  in
  {
    read =
      (fun key ->
        match span Replica_get (fun () -> Replica.handle_get replicas.(0) ~key) with
        | Some (_, wts) -> wts
        | None -> failwith "replay: replica 0 refused a read");
    send_validates =
      (fun txn ts -> span Mailbox (fun () -> Mailbox.push sbox (Validates { txn; ts })));
    collect_validates =
      (fun on_reply ->
        drain_server ();
        let lanes (mask, codes) =
          for r = 0 to n_replicas - 1 do
            if mask land (1 lsl r) <> 0 then
              on_reply r (status_of_code ((codes lsr (4 * r)) land 15))
          done
        in
        ignore (span Mailbox (fun () -> Mailbox.drain cbox ~max:128 lanes) : int));
    send_write_backs =
      (fun txn ts commit ->
        span Mailbox (fun () -> Mailbox.push sbox (Write_backs { txn; ts; commit })));
    apply_write_backs = drain_server;
    close = ignore;
  }

(* ---- Cluster: poll-mode shims on loopback UDP --------------------- *)

let bind_shim () =
  match Net.bind () with
  | Ok s -> s
  | Error msg -> failwith ("replay: bind: " ^ msg)

(* [n] shims on distinct ports. [Net.bind] sets SO_REUSEADDR, and
   Linux then may give a new port-0 socket a port that another such
   socket already holds; datagrams for that port reach only one of the
   two. A socket that repeats a port stays bound until all [n] are
   found, so it cannot be handed out again. *)
let bind_shims n =
  let rec go found spare =
    if List.length found = n then begin
      List.iter Net.stop spare;
      Array.of_list (List.rev found)
    end
    else
      let s = bind_shim () in
      if List.exists (fun t -> Net.port t = Net.port s) found then
        go found (s :: spare)
      else go (s :: found) spare
  in
  go [] []

let loopback s = Unix.ADDR_INET (Unix.inet_addr_loopback, Net.port s)

(* Poll [shim] until [expect] messages have been delivered: one logical
   receive, so the span count does not depend on how the kernel
   happens to batch datagrams. *)
let pump shim ~deliver ~expect =
  span Shim (fun () ->
      let got = ref 0 and deadline = ref 0 in
      while !got < expect do
        let n = Net.poll shim ~deliver in
        got := !got + n;
        if n = 0 then begin
          if !deadline = 0 then deadline := Ledger.now_ns () + 2_000_000_000
          else if Ledger.now_ns () > !deadline then
            failwith "replay: a datagram never arrived"
        end
      done)

(* A poll whose job is to send the shim's queued frames. *)
let flush shim ~deliver = span Shim (fun () -> ignore (Net.poll shim ~deliver : int))

let cluster_transport replicas =
  let shims = bind_shims (n_replicas + 1) in
  let client = shims.(0) in
  let servers = Array.sub shims 1 n_replicas in
  let server_addr = Array.map loopback servers in
  let send shim ~dst m = span Shim (fun () -> Net.send shim ~dst (0, m)) in
  let server_deliver r ~src (_shard, msg) =
    let rep = replicas.(r) in
    match msg with
    | Codec.Get { slot; seq; key; _ } -> (
        match span Replica_get (fun () -> Replica.handle_get rep ~key) with
        | Some (value, wts) ->
            send servers.(r) ~dst:src
              (Codec.Get_reply { slot; seq; replica = r; key; value; wts })
        | None -> ())
    | Codec.Validate { slot; seq; txn; ts; _ } -> (
        match
          span Replica_validate (fun () ->
              Replica.handle_validate rep ~core:0 ~txn ~ts)
        with
        | Some status ->
            send servers.(r) ~dst:src
              (Codec.Validated { slot; seq; replica = r; status })
        | None -> ())
    | Codec.Write_back { txn; ts; commit } ->
        ignore
          (span Replica_commit (fun () ->
               Replica.handle_commit rep ~core:0 ~txn ~ts ~commit)
            : unit option)
    | _ -> ()
  in
  let server_deliver = Array.init n_replicas server_deliver in
  let on_client = ref (fun (_ : Codec.t) -> ()) in
  let client_deliver ~src:_ (_shard, msg) = !on_client msg in
  (* The client's queued frames reach each replica in [targets]; when
     [expect] replies are due, the replicas send them back. *)
  let exchange targets ~expect =
    flush client ~deliver:client_deliver;
    List.iter
      (fun (r, n) ->
        pump servers.(r) ~deliver:server_deliver.(r) ~expect:n;
        if expect > 0 then flush servers.(r) ~deliver:server_deliver.(r))
      targets;
    if expect > 0 then pump client ~deliver:client_deliver ~expect
  in
  let all n = List.init n_replicas (fun r -> (r, n)) in
  let read_wts = Hashtbl.create 16 in
  let seq = ref 0 in
  {
    read =
      (fun key ->
        incr seq;
        Hashtbl.reset read_wts;
        on_client :=
          (function
          | Codec.Get_reply { key; wts; _ } -> Hashtbl.replace read_wts key wts
          | _ -> ());
        send client ~dst:server_addr.(0)
          (Codec.Get { coord = 0; slot = 0; seq = !seq; key });
        exchange [ (0, 1) ] ~expect:1;
        match Hashtbl.find_opt read_wts key with
        | Some wts -> wts
        | None -> failwith "replay: read reply missing");
    send_validates =
      (fun txn ts ->
        Array.iter
          (fun dst ->
            send client ~dst (Codec.Validate { coord = 0; slot = 0; seq = !seq; txn; ts }))
          server_addr);
    collect_validates =
      (fun on_reply ->
        on_client :=
          (function
          | Codec.Validated { replica; status; _ } -> on_reply replica status
          | _ -> ());
        exchange (all 1) ~expect:n_replicas);
    send_write_backs =
      (fun txn ts commit ->
        Array.iter
          (fun dst -> send client ~dst (Codec.Write_back { txn; ts; commit }))
          server_addr);
    apply_write_backs = (fun () -> exchange (all 1) ~expect:0);
    close = (fun () -> Array.iter Net.stop servers; Net.stop client);
  }

(* ---- The replay loop ---------------------------------------------- *)

let open_wals replicas (dir, policy) =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.mapi
    (fun r rep ->
      let path = Filename.concat dir (Printf.sprintf "r%d.wal" r) in
      let wal = Wal.open_log ~path ~policy in
      Replica.set_durable_hook rep (function
        | Replica.Finalized { core; view } ->
            span Wal (fun () ->
                ignore
                  (Wal.append wal (Walcodec.encode_record { Walcodec.core; view })
                    : [ `Synced | `Buffered ]))
        | Replica.Installed _ -> ());
      (path, wal))
    replicas

let run ?ledger:l cfg =
  ledger := l;
  let quorum = Quorum.create ~n:n_replicas in
  let replicas =
    Array.init n_replicas (fun id -> Replica.create ~id ~quorum ~cores:1)
  in
  Array.iter
    (fun r ->
      for key = 0 to cfg.keys - 1 do
        Replica.load r ~key ~value:0
      done)
    replicas;
  let wals = Option.map (open_wals replicas) cfg.wal in
  let tr =
    match cfg.arrangement with
    | Live -> live_transport replicas
    | Cluster -> cluster_transport replicas
  in
  let rng = Mk_util.Rng.create ~seed:(cfg.seed + 7919) in
  let wl =
    match cfg.kind with
    | Ycsb_t -> Workload.ycsb_t ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Retwis -> Workload.retwis ~rng ~keys:cfg.keys ~theta:cfg.theta
  in
  let params =
    {
      Protocol.n_replicas;
      quorum;
      rto = 200_000.0;
      grace = 5_000.0;
    }
  in
  let acts : Protocol.action Batch.t = Batch.create () in
  let cur = ref None and decision = ref None in
  let exec = function
    | Protocol.Send_validates _ -> (
        match !cur with Some (txn, ts) -> tr.send_validates txn ts | None -> ())
    | Protocol.Send_accepts _ -> failwith "replay: unexpected slow path"
    | Protocol.Arm_timer _ | Protocol.Note_validated -> ()
    | Protocol.Note_decided { commit; _ } -> (
        decision := Some commit;
        match !cur with
        | Some (txn, ts) -> tr.send_write_backs txn ts commit
        | None -> ())
  in
  let committed = ref [] and n_committed = ref 0 and aborted = ref 0 in
  let acked = ref 0 in
  let t0 = Ledger.now_ns () in
  for i = 0 to cfg.txns - 1 do
    cur_tid := i;
    span Txn (fun () ->
        let req = span Workload (fun () -> Workload.next wl) in
        let read_set =
          Array.to_list
            (Array.map
               (fun key -> ({ key; wts = tr.read key } : Txn.read_entry))
               req.Mk_model.System_intf.reads)
        in
        let write_set =
          Array.to_list
            (Array.map
               (fun (key, value) -> ({ key; value } : Txn.write_entry))
               req.Mk_model.System_intf.writes)
        in
        let client_id = i mod clients in
        let tid = Tid.make ~seq:((i / clients) + 1) ~client_id in
        let txn = Txn.make ~tid ~read_set ~write_set in
        let now = float_of_int (i + 1) in
        let ts = Timestamp.make ~time:now ~client_id in
        cur := Some (txn, ts);
        decision := None;
        let proto =
          span Protocol (fun () ->
              Batch.clear acts;
              let p = Protocol.start params ~now ~into:acts in
              Batch.iter exec acts;
              p)
        in
        tr.collect_validates (fun replica status ->
            if not (Protocol.decided proto) then
              span Protocol (fun () ->
                  Batch.clear acts;
                  Protocol.handle proto ~now
                    (Protocol.Validate_reply { replica; status })
                    ~into:acts;
                  Batch.iter exec acts));
        tr.apply_write_backs ();
        match !decision with
        | None -> failwith "replay: transaction left undecided"
        | Some commit ->
            incr acked;
            if commit then begin
              incr n_committed;
              committed := (txn, ts) :: !committed
            end
            else incr aborted)
  done;
  cur_tid := -1;
  let checker = span Checker (fun () -> Checker.check !committed) in
  let elapsed_ns = Ledger.now_ns () - t0 in
  tr.close ();
  (match (cfg.wal, wals) with
  | Some (dir, _), Some ws ->
      Array.iter
        (fun (path, wal) ->
          Wal.close wal;
          try Sys.remove path with Sys_error _ -> ())
        ws;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | _ -> ());
  ledger := None;
  {
    submitted = cfg.txns;
    acked = !acked;
    committed = !committed;
    committed_count = !n_committed;
    aborted = !aborted;
    elapsed_ns;
    checker;
  }
