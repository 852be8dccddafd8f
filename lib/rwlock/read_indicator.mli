(** Distributed read-indicator with one bit per (thread, lock).

    This is the memory layout of Figure 1 and Algorithm 3 of the paper: for
    each thread there is a private region of words, and bit [w mod B] of
    word [w / B] in thread [t]'s region says "thread [t] holds (or is
    waiting for, in the writer-arrives-as-reader case) the read side of
    lock [w]".  Because a word is only ever written by its owning thread,
    {!arrive} and {!depart} are an atomic load + store — no compare-and-swap
    or fetch-and-add — which is the key to read scalability (§2.4).  On
    OCaml 5.1 the store ([Atomic.set]) is still an out-of-line
    [caml_atomic_exchange] call (a locked [xchg] plus a write barrier), so
    each store costs tens of nanoseconds even uncontended; {!depart_all}
    lets an owner that remembers its non-zero words release every lock in
    a word with one store.

    Divergence from the paper: the paper packs 64 locks per word; OCaml
    ints are 63-bit so we pack {!bits_per_word} = 32 locks per word.  The
    aggregation property (many read-indicators of one thread share a word,
    so the memory cost stays one bit per thread per lock) is preserved. *)

type t

val bits_per_word : int
(** Locks whose indicator bits share one word (32). *)

val create : num_locks:int -> t
(** [create ~num_locks] sizes the indicator for [num_locks] reader-writer
    locks and {!Util.Tid.max_threads} threads.  [num_locks] must be a
    positive multiple of {!bits_per_word}. *)

val arrive : t -> tid:int -> int -> unit
(** Set the calling thread's bit for lock [w].  Idempotent. *)

val depart : t -> tid:int -> int -> unit
(** Clear the calling thread's bit for lock [w].  Idempotent. *)

type read_set = private { mutable idxs : int array; mutable n : int }
(** An owner's record of its words that may be non-zero, so that it can
    depart every lock it holds with one store per word ({!depart_all})
    instead of one per lock: the first [n] entries of [idxs] (a word may
    appear twice).  Belongs to one thread and one indicator; read-only
    outside this module. *)

val read_set : unit -> read_set
(** An empty read set. *)

val arrive_into : t -> read_set -> tid:int -> int -> bool
(** [true] if [tid]'s bit for lock [w] is already set, and then nothing
    is stored or recorded.  Otherwise {!arrive}, after recording [tid]'s
    word for lock [w] in the read set when that word is zero, and
    [false].  One load of the word serves both cases.  The owner of the
    read set must make every arrival of [tid] on [t] through it, except
    arrivals it departs again itself (with {!depart}) before calling
    {!depart_all}. *)

val depart_all : t -> read_set -> unit
(** Store 0 into every word recorded in the read set and empty it:
    departs every lock whose bit those words hold. *)

val holds : t -> tid:int -> int -> bool
(** Is [tid]'s bit for lock [w] set?  (Cheap: one load.) *)

val is_empty : t -> self:int -> int -> bool
(** [is_empty t ~self w]: no thread other than [self] has its bit set for
    lock [w] ([riIsEmpty], Algorithm 3).  Scans up to the thread-id
    high-water mark. *)

val iter_readers : t -> self:int -> int -> (int -> unit) -> unit
(** Call the function on every thread id (≠ [self]) whose bit for lock [w]
    is set; used by the lowest-timestamp conflict scan. *)
