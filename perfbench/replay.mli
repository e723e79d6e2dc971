(** Single-domain replay of the commit path, for the per-layer ledger.

    The replay feeds the seeded transaction stream the live and cluster
    coordinators would generate ([seed + 7919], one coordinator)
    through the public functions of each layer, one transaction at a
    time: {!Mk_workload.Workload.next}, then the execute-phase reads,
    the {!Mk_meerkat.Protocol} machine with its {!Mk_meerkat.Batch},
    the replicas' validate and commit handlers (with the WAL behind
    {!Mk_meerkat.Replica.set_durable_hook} when asked), and finally
    {!Mk_harness.Checker.check} over the committed history.

    Two arrangements carry the messages:
    - [Live]: one server and one coordinator {!Mk_live.Mailbox}, with
      the live runtime's message shapes (one mailbox message per
      broadcast, replica statuses packed into one reply). Reads call
      [Replica.handle_get] directly, as live coordinators do.
    - [Cluster]: poll-mode {!Mk_node.Shim} sockets on loopback UDP, one
      per replica and one for the client, carrying {!Mk_wire.Codec}
      frames. Reads are [Get] round trips to replica 0.

    With a ledger, every call into a layer is wrapped in a span. The
    protocol runs on a virtual clock (one microsecond per transaction)
    and no timer ever fires, so the sequence of calls depends on the
    seed alone. *)

type kind = Ycsb_t | Retwis
type arrangement = Live | Cluster

type config = {
  kind : kind;
  keys : int;
  theta : float;
  seed : int;
  txns : int;  (** Transactions to replay. *)
  arrangement : arrangement;
  wal : (string * Mk_durable.Wal.policy) option;
      (** Data directory (created, then removed) and fsync policy:
          one log per replica. *)
}

type result = {
  submitted : int;
  acked : int;
  committed : (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list;
  committed_count : int;
  aborted : int;
  elapsed_ns : int;  (** The replay loop plus the checker call. *)
  checker : (unit, Mk_harness.Checker.violation) Stdlib.result;
}

val run : ?ledger:Ledger.t -> config -> result
(** @raise Failure if an expected message never arrives (2 s) or the
    protocol leaves the fast path, which a sequential replay never
    should. *)
