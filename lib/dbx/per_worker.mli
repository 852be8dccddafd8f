(** Per-worker contexts of a concurrency control, each built by its own
    worker.

    A context (lock-set vectors, undo arena, read set) is written on
    every access of its worker's transactions.  Built up front by the
    domain that creates the engine, the contexts of different workers
    land side by side in that domain's heap and share cache lines.
    Here a worker's context is built on its first {!get}, by the
    calling domain, so it is allocated among that worker's own data.
    Every concurrency control in {!Runner.ccs} keeps its contexts here,
    so Figure 11 compares them under the same layout. *)

type 'a t

val create : (int -> 'a) -> 'a t
(** [create make] holds no context yet; [make tid] builds [tid]'s. *)

val get : 'a t -> int -> 'a
(** [get t tid] is [tid]'s context, built by the calling domain on
    [tid]'s first call and the same physical value afterwards.  Call it
    only from the domain that holds [tid] (see {!Util.Tid}). *)

val find : 'a t -> int -> 'a option
(** [tid]'s context if it has been built; builds nothing. *)

val count : 'a t -> int
(** Contexts built so far. *)
