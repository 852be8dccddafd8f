(* Crash–recovery soak (--scenario crash, DESIGN.md §15.4): repeatedly
   run the durable conserved-transfer workload in a child process, kill
   the child at a seeded WAL chaos site ([Unix._exit] from inside the
   instrumentation point: no cleanup, no flush), then recover in the
   parent through the strict recovery oracle ([Dbx.Durable.verify]; a
   process kill cannot tear or reorder sectors, so a valid record after
   damaged bytes is corruption here, DESIGN.md §16).

   The child re-execs this binary with the hidden --crash-child flags
   and the shared --seed, --threads and --seconds: OCaml domains make
   [Unix.fork] unsafe, and a fresh exec is what a restart looks like.
   The WAL directory persists across cycles (each child recovers its
   predecessor's state first), with a fresh generation every 10 cycles
   so segment chains stay bounded. *)

module Chaos = Twoplsf_chaos.Chaos
module Wal = Twoplsf_wal.Wal

let rows = 64

(* One cycle per site, round-robin, so a full run exercises every WAL
   crash point: the append inside the commit window, the fsync and both
   checkpoint windows (run by whichever committer leads the flush, so
   the kill lands on a worker), and the three commit-window positions
   (before the log append, between append and lock release, and after
   release but before the durability wait). *)
let kill_sites =
  [|
    Chaos.Wal_append;
    Chaos.Wal_fsync;
    Chaos.Wal_checkpoint;
    Chaos.Commit_durable_pre;
    Chaos.Commit_durable_mid;
    Chaos.Commit_durable_post;
  |]

(* ---- child: run the workload until killed (or until the clock runs
   out, a clean cycle) ---- *)

let child ~dir ~site_code ~after ~seed ~threads ~seconds =
  let tbl = Dbx.Durable.make_table ~rows in
  let store = Dbx.Cc_2plsf.wal_store tbl in
  let next_lsn =
    if Sys.file_exists dir then (Wal.recover ~strict:true ~dir store).Wal.r_next_lsn
    else 1
  in
  (* Quiet config: sync points fire (so the armed kill can trigger) but
     inject no delays or faults — the only chaos here is death. *)
  Chaos.enable ~config:Chaos.quiet ();
  Chaos.arm_kill ~site:(Chaos.Site.of_code site_code) ~after;
  (* Low checkpoint threshold (~70 records at 64 rows): each cycle
     completes several fuzzy checkpoints and segment truncations before
     the kill fires, so the image/truncate paths see as much crash
     traffic as the append path. *)
  let w =
    Wal.create ~next_lsn (Wal.config ~dir ~ckpt_every_bytes:(1 lsl 14) ()) store
  in
  let cc = Dbx.Cc_2plsf.create tbl in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  Dbx.Wal_obs.register w;
  let worker i should_stop =
    Dbx.Durable.transfers cc ~tid:(Util.Tid.get ()) ~rows
      (Util.Sprng.create (seed + (i * 7919) + 1))
      ~until:(fun _ -> should_stop ())
  in
  ignore (Harness.Exec.run_timed ~threads ~seconds worker);
  (* Reached only when the armed site never fired within the budget. *)
  Chaos.disarm_kill ();
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w;
  Dbx.Wal_obs.unregister ();
  Chaos.disable ()

(* ---- parent: cycle driver ---- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let spawn_child ~dir ~site ~after ~seed ~threads ~seconds ~log =
  let args =
    [|
      Sys.executable_name;
      "--crash-child"; dir;
      "--crash-site"; string_of_int (Chaos.Site.code site);
      "--crash-after"; string_of_int after;
      "--seed"; string_of_int seed;
      "--threads"; string_of_int threads;
      "--seconds"; Printf.sprintf "%g" seconds;
    |]
  in
  let logfd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process Sys.executable_name args Unix.stdin logfd logfd
  in
  Unix.close logfd;
  snd (Unix.waitpid [] pid)

let run ~cycles ~threads ~seconds ~seed ~dir =
  rm_rf dir;
  let log = dir ^ ".child.log" in
  let nsites = Array.length kill_sites in
  let killed = Array.make nsites 0 in
  let clean = ref 0 and failures = ref 0 in
  let torn = ref 0 and replayed = ref 0 and records = ref 0 in
  let rng = Util.Sprng.create seed in
  Printf.printf
    "crash soak: %d cycles, %d threads, %d rows, %.2fs/cycle, dir=%s\n%!"
    cycles threads rows seconds dir;
  for cycle = 0 to cycles - 1 do
    if cycle > 0 && cycle mod 10 = 0 then rm_rf dir;
    let si = cycle mod nsites in
    let site = kill_sites.(si) in
    (* Arrival budgets: the commit/append/fsync sites fire once per
       transaction or batch (hundreds per cycle); checkpoints are rare
       (two arrivals each), so keep their countdown short. *)
    let after =
      match site with
      | Chaos.Wal_checkpoint -> 1 + Util.Sprng.int rng 4
      | _ -> 1 + Util.Sprng.int rng 250
    in
    let status =
      spawn_child ~dir ~site ~after ~seed:(seed + (cycle * 65537)) ~threads
        ~seconds ~log
    in
    let exit_tag =
      match status with
      | Unix.WEXITED c when c = Chaos.kill_exit_code ->
          killed.(si) <- killed.(si) + 1;
          "killed"
      | Unix.WEXITED 0 ->
          incr clean;
          "clean"
      | Unix.WEXITED c ->
          incr failures;
          Printf.sprintf "CHILD-EXIT-%d" c
      | Unix.WSIGNALED s ->
          incr failures;
          Printf.sprintf "CHILD-SIGNAL-%d" s
      | Unix.WSTOPPED s ->
          incr failures;
          Printf.sprintf "CHILD-STOPPED-%d" s
    in
    match Dbx.Durable.verify ~strict:true ~dir ~rows ~acked_floor:0 () with
    | Ok { Dbx.Durable.recovery = r; _ } ->
        if r.Wal.r_torn_tail then incr torn;
        replayed := !replayed + r.Wal.r_replayed;
        records := !records + r.Wal.r_records;
        Printf.printf
          "  cycle %3d  %-19s after=%-4d %-14s lsn=%-8d records=%-6d \
           replayed=%-6d segs=%d%s%s\n%!"
          cycle
          (Chaos.Site.name site)
          after exit_tag r.Wal.r_max_lsn r.Wal.r_records r.Wal.r_replayed
          r.Wal.r_segments
          (if r.Wal.r_torn_tail then
             Printf.sprintf "  torn-tail(-%dB)" r.Wal.r_truncated_bytes
           else "")
          (if r.Wal.r_image_lsn > 0 then
             Printf.sprintf "  ckpt@%d" r.Wal.r_image_lsn
           else "")
    | Error v ->
        incr failures;
        Printf.printf "  cycle %3d  %-19s after=%-4d %-14s VIOLATION: %s\n%!"
          cycle
          (Chaos.Site.name site)
          after exit_tag
          (Dbx.Durable.violation_to_string v);
        (* A corrupt generation would fail every subsequent cycle for
           the same root cause; start fresh so each cycle is an
           independent trial. *)
        rm_rf dir
  done;
  let total_killed = Array.fold_left ( + ) 0 killed in
  Printf.printf "crash soak summary: %d cycles, %d killed (%s), %d clean, %d \
                 torn tails, %d records replayed, %d violations\n%!"
    cycles total_killed
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i n -> Printf.sprintf "%s=%d" (Chaos.Site.name kill_sites.(i)) n)
             killed)))
    !clean !torn !replayed !failures;
  Harness.Bench_artifact.record_wal
    ([
       ("crash_cycles", cycles);
       ("killed", total_killed);
       ("clean", !clean);
       ("torn_tails", !torn);
       ("records_seen", !records);
       ("records_replayed", !replayed);
       ("violations", !failures);
     ]
    @ Array.to_list
        (Array.mapi
           (fun i n ->
             let key =
               String.map
                 (fun c -> if c = '-' then '_' else c)
                 (Chaos.Site.name kill_sites.(i))
             in
             ("killed_" ^ key, n))
           killed));
  !failures
