(** One untraced run of the cluster workload: 3 [meerkat_node]
    processes of 1 core each on loopback UDP, driven by 1 in-process
    coordinator domain ({!Mk_node.Client_driver}) with 32 closed-loop
    YCSB-T clients over 65,536 uniform keys. *)

type node_stats = {
  exit_ok : bool;  (** Exited with status 0 after printing its stats. *)
  committed : int;  (** Records this replica committed; -1 if unknown. *)
  decode_errors : int;
  bytes : int;  (** Wire bytes sent plus received. *)
  peak_rss_kb : int;  (** Peak resident memory just before shutdown. *)
}

type run = {
  result : Mk_node.Client_driver.result;
  setup_s : float;  (** Fork plus port handshake. *)
  minor_words : float;  (** Allocated by the driver process in the run. *)
  nodes : node_stats array;
  problems : string list;
      (** The correctness gate's findings plus the cluster checks:
          every node exits 0, no decode errors, and every replica
          committed the same number of records. *)
}

val run : node_exe:string -> seed:int -> seconds:float -> run

val setup_probe : node_exe:string -> float
(** Fork the nodes, complete the handshake (the timed part), then shut
    them down and reap them.
    @raise Failure if a node does not exit cleanly. *)
