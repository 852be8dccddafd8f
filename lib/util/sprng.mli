(** SplitMix64 pseudo-random number generator.

    A small, fast, statistically solid PRNG used by every workload
    generator in the repository.  Each worker owns its own generator, as
    in the paper's C++ harness.  A generator's 8-byte state is padded to a
    cache line of its own, so workers drawing from their own generators
    write no shared line even when one domain allocated all of the
    generators together. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Distinct seeds
    give independent streams for practical purposes. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** The next output with its top bit cleared: a non-negative [int] that
    allocates nothing.  [float t] is [float_of_int (bits t) /. float_of_int
    max_int]; a caller in another module that must not box a [float]
    return computes that expression itself. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n).  Requires [n > 0]. *)

val float : t -> float
(** Uniform draw from [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val hash4 : int -> int -> int -> int -> int
(** Stateless SplitMix64-finalizer hash of four integers to a
    non-negative [int].  Unlike {!next}, the result depends only on the
    arguments — no stream state — so callers can derive draws that are a
    pure function of a key tuple (e.g. the chaos layer's
    [(seed, tid, site, step)] fault decisions). *)
