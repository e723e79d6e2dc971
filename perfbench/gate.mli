(** The correctness gate every benchmark run passes through. A run
    that fails it is reported as failed, never dropped. *)

val check :
  what:string ->
  submitted:int ->
  acked:int ->
  committed:(Mk_storage.Txn.t * Mk_clock.Timestamp.t) list ->
  string list
(** The problems found, each prefixed with [what]: transactions
    started but never acknowledged, and a committed history that
    {!Mk_harness.Checker.check} rejects. Empty when the run is
    correct. *)
