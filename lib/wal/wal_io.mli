(** Storage-fault VFS (DESIGN.md §16): the WAL's entire I/O surface —
    open / write / fsync / rename / readdir / unlink / truncate — behind
    one record of closures, so the same log code runs against the real
    filesystem (passthrough, the zero-overhead default), a seeded
    fault-injecting wrapper, or the simulated block device of
    {!Sim_fs}.

    Error contract: "expected" conditions keep the [Unix] idiom
    ([io_open_ro] on a missing file raises [Unix.Unix_error (ENOENT, _, _)]
    exactly as [Unix.openfile] would), while injected and
    simulated device failures raise {!Io_error} with a [transient] bit
    that tells the WAL whether a capped-backoff retry is allowed.
    [fsync] failures are {e never} transient: per the fsyncgate
    semantics, a failed fsync means the unflushed pages may already be
    gone, and retrying the call would turn data loss into a silent lie
    (the injector actually drops them — see {!faulty}). *)

exception
  Io_error of {
    op : string;  (** "write", "fsync", "open", "rename", ... *)
    path : string;
    error : Unix.error;
    transient : bool;
        (** a retry may succeed (transient EIO, ENOSPC blip); always
            [false] for fsync failures and dead devices *)
  }

(** An open file.  Positions are implicit (sequential), matching how the
    WAL writes: segments and images are append-only streams. *)
type file = {
  f_path : string;
  f_write : Bytes.t -> pos:int -> len:int -> int;
      (** short writes allowed: returns bytes written, >= 1 on success.
          [b] is only borrowed: the caller reuses it after the call
          returns, so an implementation that keeps the data copies it. *)
  f_read : Bytes.t -> pos:int -> len:int -> int;  (** 0 = EOF *)
  f_size : unit -> int;
  f_truncate : int -> unit;
  f_fsync : unit -> unit;
  f_close : unit -> unit;
}

type t = {
  io_name : string;  (** "passthrough", "faulty(...)", "sim" *)
  io_mkdir : string -> unit;  (** EEXIST tolerated *)
  io_readdir : string -> string array;  (** [[||]] when the dir is missing *)
  io_exists : string -> bool;
  io_create : string -> file;  (** O_WRONLY + O_CREAT + O_TRUNC *)
  io_open_ro : string -> file;  (** raises [Unix_error (ENOENT, _, _)] *)
  io_open_rw : string -> file;  (** existing file, for truncation *)
  io_rename : string -> string -> unit;
  io_unlink : string -> unit;  (** ENOENT tolerated *)
  io_fsync_dir : string -> unit;
      (** fsync the directory fd.  EINVAL/ENOTSUP (filesystems that
          cannot sync a directory handle) are tolerated; a real EIO
          propagates — swallowing it was the fsyncgate bug class this
          layer exists to kill. *)
  io_metrics : unit -> (string * int) list;
      (** injected-fault and op counters, rendered as the
          [twoplsf_wal_io_*] OpenMetrics families; [[]] for passthrough
          (which counts nothing — zero overhead) *)
}

val passthrough : t
(** Direct [Unix] calls; the default everywhere. *)

val write_string : file -> string -> unit
(** Write the whole string, looping over short writes.  Raises the
    underlying {!Io_error} / [Unix_error] on failure; callers that need
    retry-with-resume should loop over [f_write] themselves. *)

val read_file : t -> string -> Bytes.t
(** Whole-file read through the VFS.  Raises
    [Unix_error (ENOENT, _, _)] when missing. *)

(** {2 Seeded fault injection} *)

type fault_config = {
  fseed : int;  (** every decision is a stateless hash of [(fseed, class, step)] *)
  write_eio_ppm : int;  (** P(EIO on a write), per call *)
  write_enospc_ppm : int;  (** P(ENOSPC on a write), per call *)
  write_short_ppm : int;  (** P(short write), per call *)
  fsync_fail_ppm : int;  (** P(fsync failure — unflushed pages dropped) *)
  meta_eio_ppm : int;  (** P(EIO on open / create / rename / unlink) *)
  permanent_ppm : int;
      (** P(an injected EIO is permanent: the device dies and every
          subsequent mutating op fails non-transiently) *)
  enospc_after_bytes : int;
      (** device capacity: cumulative written bytes beyond this raise
          persistent ENOSPC; 0 = unlimited *)
}

val fault_config :
  ?write_eio_ppm:int ->
  ?write_enospc_ppm:int ->
  ?write_short_ppm:int ->
  ?fsync_fail_ppm:int ->
  ?meta_eio_ppm:int ->
  ?permanent_ppm:int ->
  ?enospc_after_bytes:int ->
  seed:int ->
  unit ->
  fault_config
(** All rates default to 0. *)

val faulty : fault_config -> t -> t
(** Wrap a VFS with seeded fault injection.  Deterministic: decisions
    are pure hashes of [(seed, fault class, per-class step counter)], so
    the same op sequence sees the same faults.  Fsyncgate semantics on
    an injected fsync failure: the wrapped file is truncated back to its
    last successfully-synced length {e before} the error is raised — the
    unflushed pages are genuinely lost, exactly like a page-cache
    write-back failure — and the error is marked non-transient.
    [io_metrics] reports op counts, injections by class, and
    [device_dead]. *)
