(** In-memory span ledger for the traced replay.

    Each span records its layer, the transaction it belongs to, its
    parent span, its start and end on a monotonic nanosecond clock and
    the minor words the domain allocated inside it. Storage is
    preallocated, so recording a span allocates nothing; the spans are
    written out once, when the run ends. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds. *)

(** The layers of the commit path, plus [Txn], the per-transaction
    root span whose self time is driver glue. *)
type layer =
  | Txn
  | Workload
  | Replica_get
  | Protocol
  | Mailbox
  | Codec
  | Shim
  | Replica_validate
  | Replica_commit
  | Wal
  | Checker

val layers : layer list
(** Every layer except [Txn], in report order. *)

val layer_name : layer -> string
(** The metric prefix: ["workload"], ["replica.get"], ... *)

type t

val create : capacity:int -> t
(** Room for [capacity] spans. *)

val length : t -> int

val clear : t -> unit
(** Forget every span, keeping the storage. *)

val enter : t -> layer -> tid:int -> int
(** Open a span as a child of the innermost open span and return its
    handle. @raise Failure when the ledger is full. *)

val leave : t -> int -> unit
(** Close the span [enter] returned; spans close in LIFO order. *)

val span : t option -> layer -> tid:int -> (unit -> 'a) -> 'a
(** [span l layer ~tid f] runs [f] inside a span when [l] is [Some _],
    and just runs [f] otherwise. *)

type stat = { calls : int; self_ns : int; self_words : float }

val stats : t -> layer -> stat
(** [stats t] sums the spans recorded so far once; the result gives the
    totals of one layer. Self time and self words exclude the span's
    children. *)

val total_self_ns : t -> int
(** Self time summed over every layer except [Txn]. *)

val nesting_violations : t -> int
(** Spans that are not inside their parent's interval, or whose
    children together outlast them. Zero in a well-formed ledger. *)

val write : t -> path:string -> unit
(** One tab-separated line per span: index, layer, parent, txn id,
    start and end (ns from the first span) and minor words. *)
