(* Tests for the storage-fault layer (DESIGN.md §16): the Wal_io VFS
   contract (passthrough and seeded fault injection — determinism,
   short writes, capacity ENOSPC, fsyncgate loss), the simulated block
   device's crash materializations (sector tearing, namespace barriers),
   the engine's typed read-only degradation on permanent device failure,
   and the headline property: every legal crash materialization of a
   mid-run filesystem snapshot recovers conservation-clean with
   byte-identical double replay. *)

module Wal = Twoplsf_wal.Wal
module Wal_io = Twoplsf_wal.Wal_io
module Sim_fs = Twoplsf_wal.Sim_fs

let check = Alcotest.check
let () = ignore (Util.Tid.register ())

module Durable = Dbx.Durable

let rows = 32

(* The full recovery oracle on the simulated device's "wal" directory;
   any violation fails the test with [what] as context. *)
let verify_ok ~io ~acked_floor what =
  match Durable.verify ~io ~dir:"wal" ~rows ~acked_floor () with
  | Ok r -> r
  | Error v -> Alcotest.failf "%s: %s" what (Durable.violation_to_string v)

let read_txn =
  { Dbx.Ycsb.keys = [| 0; 1 |]; ops = [| Dbx.Ycsb.Read; Dbx.Ycsb.Read |] }

(* ---- passthrough VFS contract ---- *)

let test_passthrough_basics () =
  let io = Wal_io.passthrough in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "twoplsf_walio_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (try Sys.readdir dir with Sys_error _ -> [||]);
      if Sys.file_exists dir then Unix.rmdir dir)
    (fun () ->
      io.Wal_io.io_mkdir dir;
      io.Wal_io.io_mkdir dir (* EEXIST tolerated *);
      check Alcotest.bool "missing readdir = empty" true
        (io.Wal_io.io_readdir (Filename.concat dir "absent") = [||]);
      let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
      let f = io.Wal_io.io_create a in
      Wal_io.write_string f "hello, disk";
      f.Wal_io.f_fsync ();
      f.Wal_io.f_close ();
      check Alcotest.bool "exists after create" true (io.Wal_io.io_exists a);
      io.Wal_io.io_rename a b;
      io.Wal_io.io_fsync_dir dir;
      check Alcotest.bool "renamed away" false (io.Wal_io.io_exists a);
      check Alcotest.string "content survives rename" "hello, disk"
        (Bytes.to_string (Wal_io.read_file io b));
      (match Wal_io.read_file io a with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
      | _ -> Alcotest.fail "read of a missing file must raise ENOENT");
      io.Wal_io.io_unlink b;
      io.Wal_io.io_unlink b (* ENOENT tolerated *);
      check Alcotest.int "passthrough counts nothing" 0
        (List.length (io.Wal_io.io_metrics ())))

(* ---- injector: determinism, short writes, capacity, fsyncgate ---- *)

let drive_ops io =
  io.Wal_io.io_mkdir "d";
  let f = io.Wal_io.io_create "d/x" in
  for _ = 1 to 40 do
    (try Wal_io.write_string f (String.make 256 'w') with Wal_io.Io_error _ -> ());
    try f.Wal_io.f_fsync () with Wal_io.Io_error _ -> ()
  done;
  f.Wal_io.f_close ();
  io.Wal_io.io_metrics ()

let test_injector_determinism () =
  let mk () =
    Wal_io.faulty
      (Wal_io.fault_config ~seed:0xF00D ~write_eio_ppm:120_000
         ~write_short_ppm:150_000 ~fsync_fail_ppm:60_000 ())
      (Sim_fs.io (Sim_fs.create ()))
  in
  let m1 = drive_ops (mk ()) and m2 = drive_ops (mk ()) in
  List.iter2
    (fun (k1, v1) (k2, v2) ->
      check Alcotest.string "same key order" k1 k2;
      check Alcotest.int ("deterministic " ^ k1) v1 v2)
    m1 m2;
  if List.assoc "injected_eio" m1 = 0 && List.assoc "injected_short_write" m1 = 0
  then Alcotest.fail "rates this high must inject something in 40 rounds"

let test_short_writes_complete () =
  let fs = Sim_fs.create () in
  let io =
    Wal_io.faulty
      (Wal_io.fault_config ~seed:7 ~write_short_ppm:1_000_000 ())
      (Sim_fs.io fs)
  in
  io.Wal_io.io_mkdir "d";
  let f = io.Wal_io.io_create "d/s" in
  let payload = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  (* every f_write transfers a strict prefix; write_string must loop *)
  Wal_io.write_string f payload;
  f.Wal_io.f_fsync ();
  check Alcotest.string "short writes still complete" payload
    (Bytes.to_string (Wal_io.read_file io "d/s"));
  if List.assoc "injected_short_write" (io.Wal_io.io_metrics ()) < 2 then
    Alcotest.fail "short-write injection never fired"

let test_capacity_enospc () =
  let io =
    Wal_io.faulty
      (Wal_io.fault_config ~seed:9 ~enospc_after_bytes:1024 ())
      (Sim_fs.io (Sim_fs.create ()))
  in
  io.Wal_io.io_mkdir "d";
  let f = io.Wal_io.io_create "d/full" in
  let failed = ref None in
  (try
     for _ = 1 to 16 do
       Wal_io.write_string f (String.make 512 'z')
     done
   with Wal_io.Io_error { error; transient; _ } ->
     failed := Some (error, transient));
  (match !failed with
  | Some (Unix.ENOSPC, false) -> ()
  | Some (error, _) ->
      Alcotest.failf "wrong error: %s" (Unix.error_message error)
  | None -> Alcotest.fail "capacity cap never tripped");
  check Alcotest.int "device_full gauge" 1
    (List.assoc "device_full" (io.Wal_io.io_metrics ()));
  (* full is persistent: the next write fails too *)
  match Wal_io.write_string f "more" with
  | exception Wal_io.Io_error { error = Unix.ENOSPC; _ } -> ()
  | () -> Alcotest.fail "writes after ENOSPC must keep failing"

let test_fsyncgate_drops_unflushed () =
  let fs = Sim_fs.create () in
  let io =
    Wal_io.faulty
      (Wal_io.fault_config ~seed:3 ~fsync_fail_ppm:1_000_000 ())
      (Sim_fs.io fs)
  in
  io.Wal_io.io_mkdir "d";
  let f = io.Wal_io.io_create "d/gone" in
  Wal_io.write_string f "never made it";
  (match f.Wal_io.f_fsync () with
  | exception Wal_io.Io_error { op = "fsync"; transient = false; _ } -> ()
  | () -> Alcotest.fail "injected fsync failure did not raise"
  | exception e -> raise e);
  (* fsyncgate: the unflushed pages are gone, not pending — the file is
     back at its last durable length and no later sync resurrects them *)
  check Alcotest.int "unflushed bytes dropped" 0
    (Bytes.length (Wal_io.read_file io "d/gone"));
  if List.assoc "injected_fsync_fail" (io.Wal_io.io_metrics ()) < 1 then
    Alcotest.fail "fsync-failure counter not bumped"

(* ---- simulated block device crash semantics ---- *)

let test_sim_crash_barriers () =
  let fs = Sim_fs.create () in
  let io = Sim_fs.io fs in
  io.Wal_io.io_mkdir "d";
  (* durable: content fsynced, name fsync_dir'd *)
  let f = io.Wal_io.io_create "d/a" in
  Wal_io.write_string f (String.make 512 'A');
  f.Wal_io.f_fsync ();
  io.Wal_io.io_fsync_dir "d";
  (* pending: a rename of the durable file, and a fresh unsynced file *)
  io.Wal_io.io_rename "d/a" "d/b";
  let g = io.Wal_io.io_create "d/c" in
  Wal_io.write_string g (String.make 512 'C');
  for seed = 1 to 8 do
    let c = Sim_fs.crash fs ~seed in
    let cio = Sim_fs.io c in
    let ea = cio.Wal_io.io_exists "d/a" and eb = cio.Wal_io.io_exists "d/b" in
    (* the pre-barrier content is inviolable; only its name may differ *)
    if not (ea <> eb) then
      Alcotest.failf "seed %d: exactly one of a/b must exist" seed;
    let survivor = if ea then "d/a" else "d/b" in
    check Alcotest.string
      (Printf.sprintf "seed %d: synced content intact" seed)
      (String.make 512 'A')
      (Bytes.to_string (Wal_io.read_file cio survivor));
    (* the unsynced file may be missing, empty, or whole — never junk *)
    if cio.Wal_io.io_exists "d/c" then begin
      let body = Bytes.to_string (Wal_io.read_file cio "d/c") in
      if body <> "" && body <> String.make 512 'C' then
        Alcotest.failf "seed %d: torn single-sector file has junk" seed
    end
  done;
  (* after the barrier, every materialization agrees *)
  g.Wal_io.f_fsync ();
  io.Wal_io.io_fsync_dir "d";
  for seed = 1 to 4 do
    let cio = Sim_fs.io (Sim_fs.crash fs ~seed) in
    check Alcotest.bool "rename durable after dir fsync" true
      (cio.Wal_io.io_exists "d/b" && not (cio.Wal_io.io_exists "d/a"));
    check Alcotest.bool "second file durable after fsync" true
      (cio.Wal_io.io_exists "d/c")
  done

(* ---- engine degradation: ENOSPC mid-append ---- *)

(* [n] seeded transfers; [after] runs after every commit. *)
let transfers ?after cc ~seed ~n =
  ignore
    (Durable.transfers ?after cc ~tid:(Util.Tid.get ()) ~rows
       (Util.Sprng.create seed) ~until:(fun k -> k = n))

(* Seeded transfers until the engine degrades (true) or [cap] commits
   (false). *)
let transfer_until_degraded ?after cc ~seed ~cap =
  match transfers ?after cc ~seed ~n:cap with
  | () -> false
  | exception Stm_intf.Degraded_read_only { engine; _ } ->
      check Alcotest.string "typed engine name" "DBx-2PLSF" engine;
      true

let test_enospc_flips_readonly () =
  let fs = Sim_fs.create () in
  let io =
    Wal_io.faulty
      (Wal_io.fault_config ~seed:11 ~enospc_after_bytes:8192 ())
      (Sim_fs.io fs)
  in
  let tbl = Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let w = Wal.create (Wal.config ~io ~dir:"wal" ()) store in
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  let acked = ref 0 in
  let tid = Util.Tid.get () in
  let after () = acked := max !acked (Wal.flushed_lsn w) in
  if not (transfer_until_degraded ~after cc ~seed:42 ~cap:20_000) then
    Alcotest.fail "8KB device never filled";
  check Alcotest.bool "engine records the reason" true
    (Dbx.Cc_2plsf.degraded_reason cc <> None);
  if Dbx.Cc_2plsf.readonly_rejects cc < 1 then
    Alcotest.fail "rejection counter not bumped";
  (* reads keep serving on the degraded engine *)
  ignore (Dbx.Cc_2plsf.execute cc ~tid read_txn);
  (* and writes keep being refused, before any lock is taken *)
  (match Dbx.Cc_2plsf.execute_transfer cc ~tid ~src:0 ~dst:1 ~amount:1 with
  | exception Stm_intf.Degraded_read_only _ -> ()
  | _ -> Alcotest.fail "write served on a read-only engine");
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  check Alcotest.bool "log poisoned" true (Wal.degraded w <> None);
  (* ENOSPC destroys nothing already durable: the live log passes the
     full oracle with everything acknowledged as its floor *)
  ignore (verify_ok ~io:(Sim_fs.io fs) ~acked_floor:!acked "live log")

(* ---- engine degradation: fsync failure, then crash ---- *)

let test_fsync_fail_then_crash () =
  (* Phase 1: a clean history on the simulated device, fully durable. *)
  let fs = Sim_fs.create () in
  let tbl = Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let w = Wal.create (Wal.config ~io:(Sim_fs.io fs) ~dir:"wal" ()) store in
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  let tid = Util.Tid.get () in
  transfers cc ~seed:5 ~n:60;
  let acked = Wal.flushed_lsn w in
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  (* Phase 2: reopen on the same device, now with failing fsyncs.  The
     draw sequence is a pure hash of the seed, so scan seeds until one
     lets the reopen succeed and a later commit-path fsync fail — the
     scan itself is deterministic. *)
  let next_lsn =
    (Wal.recover ~io:(Sim_fs.io fs) ~dir:"wal" store).Wal.r_next_lsn
  in
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 64 do
    incr seed;
    let io =
      Wal_io.faulty
        (Wal_io.fault_config ~seed:!seed ~fsync_fail_ppm:400_000 ())
        (Sim_fs.io fs)
    in
    match Wal.create ~next_lsn (Wal.config ~io ~dir:"wal" ()) store with
    | exception (Wal_io.Io_error _ | Wal.Degraded _) -> ()
    | w2 ->
        let cc2 = Dbx.Cc_2plsf.create tbl in
        Dbx.Cc_2plsf.set_wal cc2 (Some w2);
        let degraded = transfer_until_degraded cc2 ~seed:77 ~cap:4_000 in
        Dbx.Cc_2plsf.set_wal cc2 None;
        Wal.stop w2;
        if degraded then begin
          found := true;
          if List.assoc "io_fsync_failures" (Wal.metrics w2) < 1 then
            Alcotest.fail "degradation without a counted fsync failure";
          (* reads still serve on the degraded engine *)
          ignore (Dbx.Cc_2plsf.execute cc2 ~tid read_txn)
        end
  done;
  if not !found then Alcotest.fail "no seed produced a mid-commit fsync failure";
  (* Now crash the device: whatever the failed fsync claimed to lose
     must never resurface, and everything acked in phase 1 must
     survive every materialization. *)
  for m = 1 to 5 do
    let cio = Sim_fs.io (Sim_fs.crash fs ~seed:(0xCAFE + m)) in
    ignore
      (verify_ok ~io:cio ~acked_floor:acked
         (Printf.sprintf "materialization %d" m))
  done

(* ---- a leader that dies of a non-I/O exception ---- *)

(* The flush runs on the committer; an exception the I/O layer does not
   classify must still poison the log and hand the flag back, so this
   waiter and every later one raise [Degraded] instead of hanging. *)
let test_leader_exception_poisons () =
  let fs = Sim_fs.create () in
  let base = Sim_fs.io fs in
  let io =
    {
      base with
      Wal_io.io_create =
        (fun path ->
          let f = base.Wal_io.io_create path in
          { f with Wal_io.f_fsync = (fun () -> failwith "firmware bug") });
    }
  in
  let tbl = Durable.make_table ~rows in
  let w = Wal.create (Wal.config ~io ~dir:"wal" ()) (Dbx.Cc_2plsf.wal_store tbl) in
  let tid = Util.Tid.get () in
  let commit () =
    Wal.mark_dirty w ~rid:0;
    Wal.log_commit w ~tid ~n:1 ~rid:(fun _ -> 0)
  in
  let lsn = commit () in
  (match Wal.wait_durable w ~lsn with
  | exception Wal.Degraded reason ->
      if not (String.length reason > 0) then Alcotest.fail "empty poison reason"
  | () -> Alcotest.fail "acked a commit whose fsync raised");
  (match Wal.degraded w with
  | Some _ -> ()
  | None -> Alcotest.fail "leader exception did not poison the log");
  (match commit () with
  | exception Wal.Degraded _ -> ()
  | _ -> Alcotest.fail "poisoned log accepted a commit");
  (match Wal.wait_durable w ~lsn with
  | exception Wal.Degraded _ -> ()
  | () -> Alcotest.fail "second waiter acked");
  check Alcotest.int "nothing acked" 0 (Wal.flushed_lsn w);
  (* the flag was released: checkpoint and stop both get it *)
  (match Wal.checkpoint w with
  | exception Wal.Degraded _ -> ()
  | () -> Alcotest.fail "checkpoint on a poisoned log");
  Wal.stop w

(* ---- crash at every I/O step ---- *)

(* [Sim_fs.io fs] with a hook run before every call, files included. *)
let hooked_io fs ~before =
  let base = Sim_fs.io fs in
  let wrap_file (f : Wal_io.file) =
    {
      f with
      Wal_io.f_write =
        (fun b ~pos ~len ->
          before "write";
          f.f_write b ~pos ~len);
      f_read =
        (fun b ~pos ~len ->
          before "read";
          f.f_read b ~pos ~len);
      f_size =
        (fun () ->
          before "size";
          f.f_size ());
      f_truncate =
        (fun n ->
          before "truncate";
          f.f_truncate n);
      f_fsync =
        (fun () ->
          before "fsync";
          f.f_fsync ());
      f_close =
        (fun () ->
          before "close";
          f.f_close ());
    }
  in
  let hook name f x =
    before name;
    f x
  in
  {
    base with
    Wal_io.io_mkdir = hook "mkdir" base.io_mkdir;
    io_readdir = hook "readdir" base.io_readdir;
    io_exists = hook "exists" base.io_exists;
    io_create = (fun p -> wrap_file (hook "create" base.io_create p));
    io_open_ro = (fun p -> wrap_file (hook "open_ro" base.io_open_ro p));
    io_open_rw = (fun p -> wrap_file (hook "open_rw" base.io_open_rw p));
    io_rename =
      (fun a b ->
        before "rename";
        base.io_rename a b);
    io_unlink = hook "unlink" base.io_unlink;
    io_fsync_dir = hook "fsync_dir" base.io_fsync_dir;
  }

(* One seeded single-worker history, snapshotting the device before
   every I/O call together with the durability watermark at that
   instant.  With no log thread the I/O sequence is a pure function of
   the seed.  Returns the op names in order, the snapshots and the
   checkpoint count. *)
let stepped_history ~seed =
  let fs = Sim_fs.create () in
  let wal = ref None in
  let ops = ref [] and snaps = ref [] in
  let before name =
    ops := name :: !ops;
    let acked = match !wal with Some w -> Wal.flushed_lsn w | None -> 0 in
    snaps := (Sim_fs.snapshot fs, acked) :: !snaps
  in
  let tbl = Durable.make_table ~rows in
  let w =
    Wal.create
      (Wal.config ~io:(hooked_io fs ~before) ~ckpt_every_bytes:2048 ~dir:"wal" ())
      (Dbx.Cc_2plsf.wal_store tbl)
  in
  wal := Some w;
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  transfers cc ~seed ~n:80;
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  let ckpts = List.assoc "checkpoints" (Wal.metrics w) in
  (List.rev !ops, List.rev !snaps, ckpts)

let test_crash_at_every_io_step () =
  let seed = 301 in
  let ops, snaps, ckpts = stepped_history ~seed in
  if ckpts < 3 then Alcotest.failf "only %d checkpoints in the history" ckpts;
  let ops', _, _ = stepped_history ~seed in
  check Alcotest.(list string) "same seed, same I/O sequence" ops ops';
  List.iteri
    (fun step (snap, acked) ->
      for m = 0 to 2 do
        let cio = Sim_fs.io (Sim_fs.crash snap ~seed:((step * 31) + m)) in
        ignore
          (verify_ok ~io:cio ~acked_floor:acked
             (Printf.sprintf "step %d (%s) mat %d" step (List.nth ops step) m))
      done)
    snaps

(* ---- the headline property ---- *)

(* Run a seeded history against the simulated device, snapshot the
   filesystem mid-flight (pending writes, pending namespace ops and
   all), and check that EVERY crash materialization passes the full
   recovery oracle, with the durability watermark at the snapshot as
   its no-false-ack floor.  Two
   configurations: Sync_none on a single segment (nothing ever synced —
   maximal tearing surface), and the durable default with aggressive
   checkpointing (rotation, image rename and truncation dops in
   flight). *)
let materializations_recover ~sync ~ckpt ~seed ~mats =
  let fs = Sim_fs.create () in
  let tbl = Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let w =
    Wal.create
      (Wal.config ~io:(Sim_fs.io fs) ~sync ~ckpt_every_bytes:ckpt ~dir:"wal" ())
      store
  in
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  transfers cc ~seed ~n:150;
  let snap = Sim_fs.snapshot fs in
  (* Without fsync nothing is acknowledged as durable. *)
  let acked = if sync = Wal.Sync_fsync then Wal.flushed_lsn w else 0 in
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  for m = 0 to mats - 1 do
    let mseed = (seed * 1009) + m in
    let cio = Sim_fs.io (Sim_fs.crash snap ~seed:mseed) in
    ignore
      (verify_ok ~io:cio ~acked_floor:acked
         (Printf.sprintf "seed %d mat %d" seed m))
  done;
  (* the untouched live log still recovers the full history *)
  let { Durable.table; _ } =
    verify_ok ~io:(Sim_fs.io fs) ~acked_floor:150 "live log"
  in
  check Alcotest.bool "live log recovers the live table" true
    (Durable.tables_equal table tbl)

let property_seeds = [ 201; 202; 203; 204; 205 ]

let test_materializations_sync_none () =
  List.iter
    (fun seed -> materializations_recover ~sync:Wal.Sync_none ~ckpt:0 ~seed ~mats:8)
    property_seeds

let test_materializations_durable () =
  List.iter
    (fun seed ->
      materializations_recover ~sync:Wal.Sync_fsync ~ckpt:4096 ~seed ~mats:8)
    property_seeds

let () =
  Alcotest.run "wal_io"
    [
      ( "vfs",
        [
          Alcotest.test_case "passthrough basics" `Quick test_passthrough_basics;
          Alcotest.test_case "injector determinism" `Quick
            test_injector_determinism;
          Alcotest.test_case "short writes complete" `Quick
            test_short_writes_complete;
          Alcotest.test_case "capacity enospc persistent" `Quick
            test_capacity_enospc;
          Alcotest.test_case "fsyncgate drops unflushed" `Quick
            test_fsyncgate_drops_unflushed;
        ] );
      ( "sim-fs",
        [
          Alcotest.test_case "crash barriers" `Quick test_sim_crash_barriers;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "enospc flips read-only" `Quick
            test_enospc_flips_readonly;
          Alcotest.test_case "fsync fail then crash" `Quick
            test_fsync_fail_then_crash;
          Alcotest.test_case "leader exception poisons" `Quick
            test_leader_exception_poisons;
        ] );
      ( "materializations",
        [
          Alcotest.test_case "sync-none single segment" `Quick
            test_materializations_sync_none;
          Alcotest.test_case "durable with checkpoints" `Quick
            test_materializations_durable;
          Alcotest.test_case "crash at every I/O step" `Quick
            test_crash_at_every_io_step;
        ] );
    ]
