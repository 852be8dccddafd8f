(* Disk-fault soak (--scenario disk, DESIGN.md §16.6): run the durable
   conserved-transfer workload in-process against the simulated block
   device ([Sim_fs]) under seeded fault injection ([Wal_io.faulty]), and
   verify that no injected storage failure — transient or permanent EIO,
   ENOSPC, short writes, failed fsyncs — ever produces a false
   durability acknowledgement or a conservation violation.

   The cycle matrix walks fault class x crash: every class runs once
   live (the engine finishes cleanly or degrades to read-only, and the
   live log must recover exactly) and once with a mid-run snapshot
   crash-materialized [mats] ways ([Sim_fs.crash]: per-sector tearing
   and reordering of everything unsynced, per-op keep/drop of pending
   namespace changes).  Every state must pass the recovery oracle
   ([Dbx.Durable.verify]) with the highest LSN acknowledged durable
   before the snapshot as its no-false-ack floor.  Permanent failures
   must also flip the engine into typed read-only mode with reads still
   serving; the run asserts that happened at least once. *)

module Wal = Twoplsf_wal.Wal
module Wal_io = Twoplsf_wal.Wal_io
module Sim_fs = Twoplsf_wal.Sim_fs

let rows = 48

(* Crash materializations per crash cycle. *)
let mats = 5

(* The WAL directory inside the simulated filesystem. *)
let sim_dir = "wal"

type fault = F_none | F_eio | F_eio_perm | F_enospc | F_short | F_fsync

let fault_classes = [| F_none; F_eio; F_eio_perm; F_enospc; F_short; F_fsync |]

let fault_name = function
  | F_none -> "none"
  | F_eio -> "eio-transient"
  | F_eio_perm -> "eio-permanent"
  | F_enospc -> "enospc"
  | F_short -> "short-write"
  | F_fsync -> "fsync-fail"

(* Rates are chosen so each ~0.3s cycle sees multiple injections without
   drowning: transient EIO heals under the WAL's capped backoff, the
   permanent class kills the device roughly every third injected error,
   the capacity cap trips after ~a thousand commit records, and fsync
   failures are rare but fatal by contract (fsyncgate: never retried). *)
let fault_io ~seed fault base =
  let wrap cfg = Wal_io.faulty cfg base in
  match fault with
  | F_none -> base
  | F_eio -> wrap (Wal_io.fault_config ~seed ~write_eio_ppm:40_000 ())
  | F_eio_perm ->
      wrap
        (Wal_io.fault_config ~seed ~write_eio_ppm:25_000 ~meta_eio_ppm:8_000
           ~permanent_ppm:300_000 ())
  | F_enospc ->
      wrap (Wal_io.fault_config ~seed ~enospc_after_bytes:(160 * 1024) ())
  | F_short -> wrap (Wal_io.fault_config ~seed ~write_short_ppm:200_000 ())
  | F_fsync -> wrap (Wal_io.fault_config ~seed ~fsync_fail_ppm:20_000 ())

let verify ~io ~acked_floor =
  Dbx.Durable.verify ~io ~dir:sim_dir ~rows ~acked_floor ()

(* ---- one cycle ---- *)

type cycle_out = {
  o_fault : fault;
  o_crash : bool;
  o_commits : int;
  o_degraded : bool;
  o_readonly_served : bool;
  o_open_failed : bool;
  o_suspects : int;
  o_violations : string list;
}

let read_txn =
  { Dbx.Ycsb.keys = [| 0; 1 |]; ops = [| Dbx.Ycsb.Read; Dbx.Ycsb.Read |] }

let cas_max a v =
  let rec go () =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then go ()
  in
  go ()

let run_cycle ~cycle ~seed ~threads ~seconds =
  let fault = fault_classes.(cycle mod Array.length fault_classes) in
  let crash = cycle mod (2 * Array.length fault_classes) >= Array.length fault_classes in
  let cseed = seed + (cycle * 65537) in
  let fs = Sim_fs.create () in
  let io = fault_io ~seed:cseed fault (Sim_fs.io fs) in
  let tbl = Dbx.Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let base =
    {
      o_fault = fault;
      o_crash = crash;
      o_commits = 0;
      o_degraded = false;
      o_readonly_served = false;
      o_open_failed = false;
      o_suspects = 0;
      o_violations = [];
    }
  in
  match
    Wal.create (Wal.config ~io ~dir:sim_dir ~ckpt_every_bytes:(1 lsl 14) ()) store
  with
  | exception (Wal_io.Io_error _ | Wal.Degraded _) ->
      (* The device died before the log even opened: nothing was ever
         acknowledged, so there is nothing to verify. *)
      { base with o_open_failed = true }
  | w ->
      let cc = Dbx.Cc_2plsf.create tbl in
      Dbx.Cc_2plsf.set_wal cc (Some w);
      let commits = Atomic.make 0 in
      (* Highest LSN known durably acknowledged (monotone floor). *)
      let acked = Atomic.make 0 in
      (* Mid-run snapshot for crash materialization: (fs copy, acked at
         capture).  Taken by worker 0 once enough commits have durable
         acks for the false-ack check to have teeth. *)
      let snap = Atomic.make None in
      let degraded_seen = Atomic.make false in
      let readonly_served = Atomic.make false in
      let take_snapshot () =
        if Atomic.get snap = None then begin
          let floor = Atomic.get acked in
          Atomic.set snap (Some (Sim_fs.snapshot fs, floor))
        end
      in
      let worker i should_stop =
        let rng = Util.Sprng.create (cseed + (i * 7919) + 1) in
        let tid = Util.Tid.get () in
        let after () =
          Atomic.incr commits;
          cas_max acked (Wal.flushed_lsn w);
          if i = 0 && crash && Atomic.get commits > rows then take_snapshot ()
        in
        try
          Dbx.Durable.transfers ~after cc ~tid ~rows rng ~until:(fun _ ->
              should_stop ())
        with Stm_intf.Degraded_read_only _ ->
          (* The device is gone: the engine flipped read-only.  Prove
             reads keep serving for the rest of the cycle. *)
          Atomic.set degraded_seen true;
          if i = 0 && crash then take_snapshot ();
          while not (should_stop ()) do
            ignore (Dbx.Cc_2plsf.execute cc ~tid read_txn);
            Atomic.set readonly_served true
          done;
          0
      in
      ignore (Harness.Exec.run_timed ~threads ~seconds worker);
      Dbx.Cc_2plsf.set_wal cc None;
      Wal.stop w;
      let degraded = Atomic.get degraded_seen || Wal.degraded w <> None in
      let violations = ref [] in
      let suspects = ref 0 in
      let note = function
        | Ok { Dbx.Durable.recovery = r; _ } ->
            suspects := !suspects + r.Wal.r_suspect_records
        | Error v -> violations := Dbx.Durable.violation_to_string v :: !violations
      in
      (* Live state: after [Wal.stop] everything acknowledged reached the
         device (or the log poisoned itself first), so the live log must
         recover cleanly with the final acked floor. *)
      note (verify ~io:(Sim_fs.io fs) ~acked_floor:(Atomic.get acked));
      if crash then begin
        (* Crash-materialize the mid-run snapshot M ways; fall back to
           the final state when the run was too short to snapshot. *)
        let sfs, floor =
          match Atomic.get snap with
          | Some (s, f) -> (s, f)
          | None -> (fs, Atomic.get acked)
        in
        for m = 0 to mats - 1 do
          let mseed = cseed + 0x51AB + (m * 257) in
          let crashed = Sim_fs.crash sfs ~seed:mseed in
          match verify ~io:(Sim_fs.io crashed) ~acked_floor:floor with
          | Ok { Dbx.Durable.recovery = r; _ } ->
              suspects := !suspects + r.Wal.r_suspect_records
          | Error v ->
              violations :=
                Printf.sprintf "materialization %d (seed %#x): %s" m mseed
                  (Dbx.Durable.violation_to_string v)
                :: !violations
        done
      end;
      {
        base with
        o_commits = Atomic.get commits;
        o_degraded = degraded;
        o_readonly_served = Atomic.get readonly_served;
        o_suspects = !suspects;
        o_violations = List.rev !violations;
      }

(* ---- driver ---- *)

let run ~cycles ~threads ~seconds ~seed =
  Printf.printf
    "disk soak: %d cycles (%d fault classes x crash/no-crash), %d threads, \
     %d rows, %.2fs/cycle, %d materializations/crash-cycle\n%!"
    cycles
    (Array.length fault_classes)
    threads rows seconds mats;
  let failures = ref 0 in
  let degraded_cycles = ref 0 and readonly_served = ref 0 in
  let open_failed = ref 0 and commits = ref 0 and suspects = ref 0 in
  let crash_cycles = ref 0 in
  for cycle = 0 to cycles - 1 do
    let o = run_cycle ~cycle ~seed ~threads ~seconds in
    if o.o_crash then incr crash_cycles;
    if o.o_degraded then incr degraded_cycles;
    if o.o_readonly_served then incr readonly_served;
    if o.o_open_failed then incr open_failed;
    commits := !commits + o.o_commits;
    suspects := !suspects + o.o_suspects;
    failures := !failures + List.length o.o_violations;
    Printf.printf "  cycle %3d  %-14s %-8s commits=%-7d %s%s%s\n%!" cycle
      (fault_name o.o_fault)
      (if o.o_crash then "crash" else "live")
      o.o_commits
      (if o.o_open_failed then "open-failed "
       else if o.o_degraded then
         if o.o_readonly_served then "degraded(reads-served) "
         else "degraded "
       else "ok ")
      (if o.o_suspects > 0 then Printf.sprintf "suspect=%d " o.o_suspects
       else "")
      (match o.o_violations with
      | [] -> ""
      | msgs -> "VIOLATION: " ^ String.concat "; " msgs);
  done;
  (* The matrix includes permanent-failure and capacity classes: a run
     where the engine never degraded (or degraded without serving reads)
     means the read-only contract went unexercised — fail loudly. *)
  if !degraded_cycles = 0 then begin
    incr failures;
    Printf.printf "  VIOLATION: no cycle degraded to read-only (matrix must \
                   exercise permanent failure)\n%!"
  end
  else if !readonly_served = 0 then begin
    incr failures;
    Printf.printf
      "  VIOLATION: degraded engine never served a read-only transaction\n%!"
  end;
  Printf.printf
    "disk soak summary: %d cycles (%d crash), %d commits, %d degraded \
     (%d served reads), %d open-failed, %d suspect records, %d violations\n%!"
    cycles !crash_cycles !commits !degraded_cycles !readonly_served
    !open_failed !suspects !failures;
  Harness.Bench_artifact.record_wal
    [
      ("disk_cycles", cycles);
      ("disk_crash_cycles", !crash_cycles);
      ("disk_materializations", !crash_cycles * mats);
      ("disk_commits", !commits);
      ("disk_degraded", !degraded_cycles);
      ("disk_readonly_served", !readonly_served);
      ("disk_open_failed", !open_failed);
      ("disk_suspect_records", !suspects);
      ("disk_violations", !failures);
    ];
  !failures
