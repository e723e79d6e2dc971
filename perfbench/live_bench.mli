(** One untraced run of a live-backend workload ({!Mk_live.Runtime}):
    1 server domain, 1 coordinator domain, 3 replicas. *)

type workload =
  | Ycsbt_closed
      (** 32 closed-loop clients, YCSB-T, 65,536 keys, uniform, no WAL. *)
  | Retwis_open
      (** Open loop at 1,000 txn/s over 32 clients, Retwis, 16,384
          keys, Zipf 0.9, per-core WAL with group commit every 64. *)

type run = {
  report : Mk_live.Runtime.report;
  setup_s : float;
      (** From the call until the run's clock starts: replica
          creation, key loading and opening the logs. *)
  problems : string list;  (** The correctness gate's findings. *)
}

val run : workload -> seed:int -> seconds:float -> data_dir:string -> run
(** [data_dir] is created for the WAL and removed afterwards. *)

val setup_probe : workload -> seed:int -> data_dir:string -> float
(** Set up the workload's backend and start it with no transactions:
    the set-up seconds alone. *)
