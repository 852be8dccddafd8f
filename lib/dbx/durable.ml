module Wal = Twoplsf_wal.Wal
module Wal_io = Twoplsf_wal.Wal_io
module Record = Twoplsf_wal.Record

let init_balance = 1_000

let make_table ~rows =
  let tbl = Table.create ~num_rows:rows in
  for rid = 0 to rows - 1 do
    Table.set_balance tbl rid init_balance
  done;
  tbl

let balance_sum t =
  let s = ref 0 in
  for rid = 0 to Table.num_rows t - 1 do
    s := !s + Table.balance t rid
  done;
  !s

let tables_equal a b =
  let ok = ref true in
  for rid = 0 to Table.num_rows a - 1 do
    if not (Bytes.equal (Table.payload a rid) (Table.payload b rid)) then
      ok := false
  done;
  !ok

let transfers ?(after = ignore) cc ~tid ~rows rng ~until =
  let k = ref 0 in
  while not (until !k) do
    let src = Util.Sprng.int rng rows in
    let dst = Util.Sprng.int rng rows in
    let amount = 1 + Util.Sprng.int rng 16 in
    ignore (Cc_2plsf.execute_transfer cc ~tid ~src ~dst ~amount);
    incr k;
    after ()
  done;
  !k

type violation =
  | Refused of string
  | Io_failed of string
  | Conservation of { sum : int; expected : int }
  | False_ack of { recovered : int; acked : int }
  | Replay_diverged
  | Lsn_order

let violation_to_string = function
  | Refused msg -> "recovery refused the log: " ^ msg
  | Io_failed msg -> "recovery I/O failed: " ^ msg
  | Conservation { sum; expected } ->
      Printf.sprintf "conservation violated: sum %d, expected %d" sum expected
  | False_ack { recovered; acked } ->
      Printf.sprintf
        "FALSE DURABILITY ACK: recovered max LSN %d < acked LSN %d" recovered
        acked
  | Replay_diverged -> "replay not idempotent: second recovery diverged"
  | Lsn_order -> "LSN order violated in surviving log"

type recovered = { table : Table.t; recovery : Wal.recovery }

(* Strictly increasing LSNs across the surviving segments, in segment
   order. *)
let lsn_monotonic ~io ~dir =
  let last = ref 0 and ok = ref true in
  List.iter
    (fun (_, path) ->
      let data = Wal_io.read_file io path in
      let len = Bytes.length data in
      let pos = ref 0 in
      while !ok && !pos < len do
        match Record.decode data ~pos:!pos ~avail:(len - !pos) with
        | Ok (r, size) ->
            if r.Record.r_lsn <= !last then ok := false;
            last := r.Record.r_lsn;
            pos := !pos + size
        | Error _ -> ok := false
      done)
    (Wal.segments ~io ~dir ());
  !ok

let verify ?(io = Wal_io.passthrough) ?strict ~dir ~rows ~acked_floor () =
  let recover () =
    let t = make_table ~rows in
    (t, Wal.recover ~io ?strict ~dir (Cc_2plsf.wal_store t))
  in
  match recover () with
  | exception Wal.Corrupt msg -> Error (Refused msg)
  | exception Wal_io.Io_error { op; path; error; _ } ->
      Error
        (Io_failed
           (Printf.sprintf "%s %s: %s" op path (Unix.error_message error)))
  | table, recovery ->
      let sum = balance_sum table and expected = rows * init_balance in
      if sum <> expected then Error (Conservation { sum; expected })
      else if recovery.Wal.r_max_lsn < acked_floor then
        Error (False_ack { recovered = recovery.Wal.r_max_lsn; acked = acked_floor })
      else if not (tables_equal table (fst (recover ()))) then
        Error Replay_diverged
      else if not (lsn_monotonic ~io ~dir) then Error Lsn_order
      else Ok { table; recovery }
