(** Host facts stamped on every result, and resident-memory probes. *)

val peak_rss_kb : ?pid:int -> unit -> int
(** [VmHWM] of a process (default: this one), in KiB; 0 when
    [/proc] cannot tell. *)

val reset_peak_rss : unit -> unit
(** Restart this process's [VmHWM] from its current resident size, so
    the next reading is the peak of what ran in between. Best effort. *)

val cpu_ticks : unit -> int * int
(** Host-wide CPU ticks from [/proc/stat]: (stolen by the hypervisor,
    all). [(0, 0)] when [/proc] cannot tell. *)

val metadata : commit:string -> string
(** One JSON object: [nproc], OCaml version, the given commit and the
    1-minute load average. *)
