(** The durable conserved-transfer workload and its recovery oracle
    (DESIGN.md §15-16), shared by the crash soak, the disk soak and the
    WAL tests.  Transfers move balance between rows, so every
    prefix-consistent recovered image sums to [rows * init_balance]. *)

val init_balance : int
val make_table : rows:int -> Table.t
val balance_sum : Table.t -> int
val tables_equal : Table.t -> Table.t -> bool

val transfers :
  ?after:(unit -> unit) ->
  Cc_2plsf.t ->
  tid:int ->
  rows:int ->
  Util.Sprng.t ->
  until:(int -> bool) ->
  int
(** Until [until k] holds ([k] = commits so far), draw a source row, a
    destination row and an amount in 1..16 and commit the transfer, then
    run [after].  Returns the commit count; engine exceptions propagate. *)

type violation =
  | Refused of string  (** recovery raised [Wal.Corrupt] *)
  | Io_failed of string
  | Conservation of { sum : int; expected : int }
  | False_ack of { recovered : int; acked : int }
  | Replay_diverged
  | Lsn_order

val violation_to_string : violation -> string

type recovered = { table : Table.t; recovery : Twoplsf_wal.Wal.recovery }

val verify :
  ?io:Twoplsf_wal.Wal_io.t ->
  ?strict:bool ->
  dir:string ->
  rows:int ->
  acked_floor:int ->
  unit ->
  (recovered, violation) result
(** Recover [dir] onto a fresh table and check, in order: conservation;
    no false ack (the recovered max LSN reaches [acked_floor], the
    highest LSN acknowledged durable before this state was captured);
    byte-equal double replay; strictly increasing LSNs across the
    surviving segments (read after recovery truncated any torn tail). *)
