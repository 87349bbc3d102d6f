(** A fixed pool of OCaml 5 domains running barrier-style jobs.

    The pool is created once per exploration and reused for every BFS layer
    (spawning domains per layer would cost ~100µs each). The calling domain
    participates as worker 0, so a pool of size 1 spawns nothing and adds no
    synchronisation — the [--workers 1] path stays sequential. *)

type t

val create : int -> t
(** [create w] spawns [w - 1] worker domains ([w] is clamped to >= 1). *)

val size : t -> int
(** Total worker count, including the caller's domain. *)

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job w] on every worker [w] in [0 .. size-1]
    concurrently and returns when all are done (a barrier). If any worker
    raises, the first exception is re-raised in the caller after all workers
    finish. Not reentrant: only the creating domain may call [run]. *)

val shutdown : t -> unit
(** Joins all worker domains. The pool must not be used afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool w f] runs [f] with a fresh pool, shutting it down on exit
    (also on exceptions). *)

val with_workers : ?workers:int -> ?pool:t -> (t -> 'a) -> 'a
(** [with_workers ?workers ?pool f] runs [f] on [pool] when given, else
    on a fresh pool of [workers] domains (default
    [Domain.recommended_domain_count ()]) shut down on exit. *)

val split : chunks:int -> len:int -> (int * int) list
(** [split ~chunks ~len] partitions [0 .. len-1] into at most [chunks]
    contiguous, balanced [lo, hi) ranges (fewer when [len < chunks]). *)
