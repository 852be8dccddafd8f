(* Tests for the paper's starvation-free reader-writer lock (Algorithm 2/3).

   Deterministic single-thread tests cover the fast paths and every
   restart (return-false) path by pre-announcing timestamps; two-domain
   tests cover the waiting paths. *)

module L = Twoplsf.Rwl_sf

let check = Alcotest.check

(* Reserve a few dense tids so read-indicator scans cover the ctx tids the
   tests fabricate. *)
let () =
  ignore (Util.Tid.register ());
  ignore (Harness.Exec.run_each ~threads:4 (fun _ -> ()))

let fresh () = L.create ~num_locks:64 ()

let test_read_fast_path () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  check Alcotest.bool "acquired" true (L.try_or_wait_read_lock t c 5);
  check Alcotest.bool "holds" true (L.holds_read t c 5);
  check Alcotest.int "no timestamp taken" 0 c.my_ts;
  L.read_unlock t c 5;
  check Alcotest.bool "released" false (L.holds_read t c 5)

let test_write_fast_path () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  check Alcotest.bool "acquired" true (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "holds" true (L.holds_write t c 5);
  check Alcotest.int "no timestamp taken" 0 c.my_ts;
  L.write_unlock t c 5;
  check Alcotest.bool "released" false (L.holds_write t c 5)

(* Telemetry on sends reads down the observed path (probe, then
   acquire); off, down the one-load fast path.  Re-entrancy must hold on
   both. *)
let on_both_paths name f =
  [
    Alcotest.test_case (name ^ " (fast path)") `Quick f;
    Alcotest.test_case (name ^ " (observed path)") `Quick (fun () ->
        Twoplsf_obs.Telemetry.enable ();
        Fun.protect ~finally:Twoplsf_obs.Telemetry.disable f);
  ]

let test_read_reentrant () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_read_lock t c 5);
  let recorded = c.rs.n in
  check Alcotest.bool "again" true (L.try_or_wait_read_lock t c 5);
  check Alcotest.int "nothing new recorded" recorded c.rs.n;
  check Alcotest.int "no timestamp taken" 0 c.my_ts;
  L.read_unlock t c 5;
  check Alcotest.bool "one release drops it" false (L.holds_read t c 5)

let test_write_reentrant () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "again" true (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "still held" true (L.holds_write t c 5);
  L.write_unlock t c 5

let test_read_then_write_upgrade () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_read_lock t c 5);
  check Alcotest.bool "upgrade" true (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "write held" true (L.holds_write t c 5);
  L.read_unlock t c 5;
  L.write_unlock t c 5

let test_write_lock_while_holding_write () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "read under own write" true
    (L.try_or_wait_read_lock t c 5);
  L.read_unlock t c 5;
  L.write_unlock t c 5

let test_read_under_own_write_released_by_commit () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "read under own write" true
    (L.try_or_wait_read_lock t c 5);
  check Alcotest.int "no timestamp taken" 0 c.my_ts;
  L.write_unlock t c 5;
  L.read_unlock_all t c;
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* A read-holds lock 5 while B has taken its write word and waits for
   A's bit to drain.  A's re-read must neither wait for B nor take a
   timestamp: a re-entrant acquire that checked the write word would
   find B there, draw a timestamp younger than B's and restart. *)
let test_reread_while_writer_drains () =
  let t = fresh () in
  let a = L.make_ctx ~tid:0 in
  check Alcotest.bool "A reads" true (L.try_or_wait_read_lock t a 5);
  let b_acquired = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let b = L.make_ctx ~tid:1 in
        let ok = L.try_or_wait_write_lock t b 5 in
        Atomic.set b_acquired ok;
        if ok then L.write_unlock t b 5;
        L.clear_announcement t b;
        Util.Tid.release ();
        ok)
  in
  (* B waits once it holds the write word and has arrived as a reader. *)
  let give_up = Unix.gettimeofday () +. 10. in
  let rec await_b () =
    let v = L.inspect t 5 in
    if not (v.writer = 1 && List.mem 1 v.readers) then
      if Unix.gettimeofday () > give_up then
        Alcotest.fail "B never started waiting"
      else begin
        Unix.sleepf 0.001;
        await_b ()
      end
  in
  (* Release A's locks even on failure, so that B never waits forever. *)
  let reread, b_early =
    Fun.protect
      ~finally:(fun () -> L.read_unlock_all t a)
      (fun () ->
        await_b ();
        let ok = L.try_or_wait_read_lock t a 5 in
        (ok, Atomic.get b_acquired))
  in
  check Alcotest.bool "re-read returns true" true reread;
  check Alcotest.int "no timestamp taken" 0 a.my_ts;
  check Alcotest.bool "B still waiting at the re-read" false b_early;
  check Alcotest.bool "B acquires after A's release" true (Domain.join d);
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

let test_reader_restarts_on_lower_ts_writer () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let reader = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_write_lock t holder 5);
  L.announce_priority t holder 3;
  L.announce_priority t reader 7;
  check Alcotest.bool "reader restarts" false
    (L.try_or_wait_read_lock t reader 5);
  check Alcotest.bool "indicator cleared" false (L.holds_read t reader 5);
  check Alcotest.int "conflictor recorded" 0 reader.o_tid;
  check Alcotest.int "conflictor ts" 3 reader.o_ts;
  L.write_unlock t holder 5

let test_writer_restarts_on_lower_ts_writer () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let writer = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_write_lock t holder 5);
  L.announce_priority t holder 3;
  L.announce_priority t writer 7;
  check Alcotest.bool "writer restarts" false
    (L.try_or_wait_write_lock t writer 5);
  check Alcotest.bool "holder keeps lock" true (L.holds_write t holder 5);
  check Alcotest.bool "loser's indicator cleared" false
    (L.holds_read t writer 5);
  L.write_unlock t holder 5

let test_writer_restarts_on_lower_ts_reader () =
  let t = fresh () in
  let reader = L.make_ctx ~tid:0 in
  let writer = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_read_lock t reader 5);
  L.announce_priority t reader 3;
  L.announce_priority t writer 7;
  check Alcotest.bool "writer restarts" false
    (L.try_or_wait_write_lock t writer 5);
  check Alcotest.bool "reader undisturbed" true (L.holds_read t reader 5);
  check Alcotest.bool "write lock free again" false (L.holds_write t writer 5);
  check Alcotest.int "conflictor recorded" 0 writer.o_tid;
  L.read_unlock t reader 5

let test_conflict_takes_timestamp_once () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let loser = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_write_lock t holder 5);
  ignore (L.try_or_wait_write_lock t holder 6);
  (* priority 1 is below anything the conflict clock can hand out, so the
     loser restarts instead of waiting *)
  L.announce_priority t holder 1;
  check Alcotest.bool "restart 1" false (L.try_or_wait_write_lock t loser 5);
  let ts1 = loser.my_ts in
  check Alcotest.bool "got a timestamp" true (ts1 > 0);
  check Alcotest.bool "restart 2" false (L.try_or_wait_write_lock t loser 6);
  check Alcotest.int "timestamp kept" ts1 loser.my_ts;
  check Alcotest.int "announced" ts1 (L.announced t 1);
  L.write_unlock t holder 5;
  L.write_unlock t holder 6

let test_unconflicted_holder_is_waited_for () =
  (* A holder that never conflicted announces nothing (= +inf priority):
     a timestamped contender must wait, not restart (DESIGN.md note on the
     NO_TIMESTAMP convention). *)
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t holder 5);
  let waited = ref false in
  let d =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let contender = L.make_ctx ~tid:1 in
        L.announce_priority t contender 9;
        let ok = L.try_or_wait_write_lock t contender 5 in
        L.write_unlock t contender 5;
        Util.Tid.release ();
        ok)
  in
  Unix.sleepf 0.05;
  waited := true;
  L.write_unlock t holder 5;
  check Alcotest.bool "acquired after wait" true (Domain.join d);
  check Alcotest.bool "really waited" true !waited

let test_clear_announcement () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  L.announce_priority t c 5;
  c.o_tid <- 3;
  c.o_ts <- 9;
  L.clear_announcement t c;
  check Alcotest.int "my_ts" 0 c.my_ts;
  check Alcotest.int "o_tid" (-1) c.o_tid;
  check Alcotest.int "announce slot" 0 (L.announced t 0)

let test_wait_for_conflictor_returns_when_cleared () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  (* Conflictor already moved on: returns immediately. *)
  c.o_tid <- 1;
  c.o_ts <- 42 (* announce slot of tid 1 is 0 <> 42 *);
  L.wait_for_conflictor t c;
  check Alcotest.int "cleared o_tid" (-1) c.o_tid

let test_wait_for_conflictor_blocks_until_commit () =
  let t = fresh () in
  let other = L.make_ctx ~tid:1 in
  L.announce_priority t other 17;
  (* The 50 ms run from when the waiter has started, not from the
     spawn: a domain can take longer than that to start on a loaded
     host. *)
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let c = L.make_ctx ~tid:2 in
        c.o_tid <- 1;
        c.o_ts <- 17;
        let t0 = Util.Clock.now () in
        Atomic.set started true;
        L.wait_for_conflictor t c;
        Util.Tid.release ();
        Util.Clock.now () -. t0)
  in
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  Unix.sleepf 0.05;
  L.clear_announcement t other;
  let waited = Domain.join d in
  check Alcotest.bool "blocked for the announcement" true (waited >= 0.03)

let test_writer_waits_for_reader_release () =
  let t = fresh () in
  let reader_done = Atomic.make false in
  let reading = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let c = L.make_ctx ~tid:(Util.Tid.get ()) in
        ignore (L.try_or_wait_read_lock t c 5);
        Atomic.set reading true;
        Unix.sleepf 0.05;
        L.read_unlock t c 5;
        Atomic.set reader_done true;
        Util.Tid.release ())
  in
  (* The writer starts once the reader holds the lock, not after a fixed
     sleep: a domain can take longer than that to start on a loaded
     host. *)
  while not (Atomic.get reading) do
    Unix.sleepf 0.001
  done;
  let writer =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let c = L.make_ctx ~tid:(Util.Tid.get ()) in
        let ok = L.try_or_wait_write_lock t c 5 in
        let after = Atomic.get reader_done in
        L.write_unlock t c 5;
        Util.Tid.release ();
        (ok, after))
  in
  Domain.join reader;
  let ok, after = Domain.join writer in
  check Alcotest.bool "writer acquired" true ok;
  check Alcotest.bool "only after reader left" true after

let test_zero_mutex () =
  let t = fresh () in
  L.zero_mutex_lock t;
  let d =
    Domain.spawn (fun () ->
        let t0 = Util.Clock.now () in
        L.zero_mutex_lock t;
        L.zero_mutex_unlock t;
        Util.Clock.now () -. t0)
  in
  Unix.sleepf 0.05;
  L.zero_mutex_unlock t;
  let waited = Domain.join d in
  check Alcotest.bool "serialized" true (waited >= 0.03)

let test_mutual_exclusion_stress () =
  (* 4 domains hammer 4 locks with random read/write acquisitions following
     the full protocol (restart + wait-for-conflictor on a refusal).  A
     per-lock occupancy word (readers + 1000 * writers) catches any
     mutual-exclusion violation. *)
  let t = fresh () in
  let occupancy = Array.init 4 (fun _ -> Atomic.make 0) in
  let violations = Atomic.make 0 in
  ignore
    (Harness.Exec.run_each ~threads:4 (fun i ->
         let c = L.make_ctx ~tid:(Util.Tid.get ()) in
         let rng = Util.Sprng.create (500 + i) in
         for _ = 1 to 400 do
           let w = Util.Sprng.int rng 4 in
           let is_write = Util.Sprng.int rng 100 < 30 in
           let rec txn () =
             if is_write then begin
               if L.try_or_wait_write_lock t c w then begin
                 let prev = Atomic.fetch_and_add occupancy.(w) 1000 in
                 if prev <> 0 then Atomic.incr violations;
                 Domain.cpu_relax ();
                 ignore (Atomic.fetch_and_add occupancy.(w) (-1000));
                 L.write_unlock t c w
               end
               else begin
                 L.wait_for_conflictor t c;
                 txn ()
               end
             end
             else if L.try_or_wait_read_lock t c w then begin
               let prev = Atomic.fetch_and_add occupancy.(w) 1 in
               if prev >= 1000 then Atomic.incr violations;
               Domain.cpu_relax ();
               ignore (Atomic.fetch_and_add occupancy.(w) (-1));
               L.read_unlock t c w
             end
             else begin
               L.wait_for_conflictor t c;
               txn ()
             end
           in
           txn ();
           L.clear_announcement t c
         done));
  check Alcotest.int "no mutual-exclusion violations" 0
    (Atomic.get violations);
  (* all locks quiescent *)
  Array.iter
    (fun o -> check Alcotest.int "occupancy drained" 0 (Atomic.get o))
    occupancy

let test_lock_index_masks () =
  let t = fresh () in
  check Alcotest.int "num locks" 64 (L.num_locks t);
  check Alcotest.int "id 0" 0 (L.lock_index t 0);
  check Alcotest.int "id 64 wraps" 0 (L.lock_index t 64);
  check Alcotest.int "id 65" 1 (L.lock_index t 65)

let test_take_timestamp_monotone () =
  let t = fresh () in
  let a = L.make_ctx ~tid:0 and b = L.make_ctx ~tid:1 in
  L.take_timestamp t a;
  L.take_timestamp t b;
  check Alcotest.bool "distinct, increasing" true (b.my_ts > a.my_ts);
  let before = a.my_ts in
  L.take_timestamp t a;
  check Alcotest.int "idempotent" before a.my_ts

(* ---- word-granular read release ---- *)

(* [Reread k] re-reads the k-th (mod count) lock A read-holds. *)
type op = Read of int | Write of int | Unlock of int | Reread of int

let print_op = function
  | Read w -> Printf.sprintf "R%d" w
  | Write w -> Printf.sprintf "W%d" w
  | Unlock w -> Printf.sprintf "U%d" w
  | Reread k -> Printf.sprintf "RR%d" k

(* 32 locks over four indicator words: draws often share a word and often
   repeat a lock. *)
let gen_lock =
  QCheck.Gen.(map2 (fun word bit -> (word * 32) + bit) (int_bound 3) (int_bound 7))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun w -> Read w) gen_lock);
        (2, map (fun w -> Write w) gen_lock);
        (1, map (fun w -> Unlock w) gen_lock);
        (2, map (fun k -> Reread k) (int_bound 7));
      ])

let qcheck_read_unlock_all =
  (* Ctx A (tid 0) runs a random mix of read acquires, write acquires
     (upgrades included) and early per-lock read_unlocks while ctx B
     (tid 1) holds read locks on some of the same locks.  B announces the
     top priority, so A's writes on B's locks fail instead of waiting.
     Writes must succeed exactly on the locks B does not hold, re-reads
     of A's read-held locks succeed and record nothing, and a model of
     A's read bits must match [holds_read] before release;
     after A's [read_unlock_all] A holds nothing and B still holds its
     locks; after B's, the table is clean. *)
  QCheck.Test.make ~name:"read_unlock_all releases exactly A's locks"
    ~count:300
    QCheck.(
      pair
        (make
           ~print:(Print.list string_of_int)
           Gen.(list_size (int_bound 6) gen_lock))
        (make
           ~print:(Print.list print_op)
           Gen.(list_size (int_range 1 40) gen_op)))
    (fun (b_locks, ops) ->
      let t = L.create ~num_locks:128 () in
      let a = L.make_ctx ~tid:0 and b = L.make_ctx ~tid:1 in
      List.iter (fun w -> assert (L.try_or_wait_read_lock t b w)) b_locks;
      L.announce_priority t b 1;
      let model = Hashtbl.create 16 in
      let writes_ok = ref true and rereads_ok = ref true in
      List.iter
        (function
          | Read w ->
              if L.try_or_wait_read_lock t a w then Hashtbl.replace model w ()
          | Write w ->
              (* Re-entrant and fast-path writes (no other reader) leave
                 A's read bit alone; a write on one of B's locks takes the
                 slow path, loses to B's priority and departs A's bit. *)
              if not (L.holds_write t a w) then begin
                let contended = List.mem w b_locks in
                if L.try_or_wait_write_lock t a w = contended then
                  writes_ok := false;
                if contended then Hashtbl.remove model w
              end
          | Unlock w ->
              L.read_unlock t a w;
              Hashtbl.remove model w
          | Reread k -> (
              let held = List.sort compare (List.of_seq (Hashtbl.to_seq_keys model)) in
              match held with
              | [] -> ()
              | _ ->
                  let w = List.nth held (k mod List.length held) in
                  let recorded = a.rs.n in
                  if not (L.try_or_wait_read_lock t a w && a.rs.n = recorded)
                  then rereads_ok := false))
        ops;
      let all = List.init 128 Fun.id in
      let model_ok =
        List.for_all (fun w -> L.holds_read t a w = Hashtbl.mem model w) all
      in
      List.iter (fun w -> if L.holds_write t a w then L.write_unlock t a w) all;
      L.read_unlock_all t a;
      let a_clear =
        List.for_all
          (fun w -> not (L.holds_read t a w || L.holds_write t a w))
          all
      in
      let b_kept = List.for_all (fun w -> L.holds_read t b w) b_locks in
      L.read_unlock_all t b;
      L.clear_announcement t a;
      L.clear_announcement t b;
      !writes_ok && !rereads_ok && model_ok && a_clear && b_kept
      && L.leaked t = 0)

let test_read_unlock_all_idempotent () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  List.iter (fun w -> ignore (L.try_or_wait_read_lock t c w)) [ 1; 2; 33 ];
  L.read_unlock t c 33;
  (* lock 33's word is recorded but zero; re-arming records it again *)
  ignore (L.try_or_wait_read_lock t c 34);
  L.read_unlock_all t c;
  check Alcotest.int "nothing held" 0 (L.leaked t);
  L.read_unlock_all t c;
  check Alcotest.int "second call is a no-op" 0 (L.leaked t);
  check Alcotest.bool "lock usable again" true (L.try_or_wait_read_lock t c 2);
  L.read_unlock_all t c;
  check Alcotest.bool "released" false (L.holds_read t c 2)

let () =
  Alcotest.run "rwl_sf"
    [
      ( "fast paths",
        [
          Alcotest.test_case "read" `Quick test_read_fast_path;
          Alcotest.test_case "write" `Quick test_write_fast_path;
          Alcotest.test_case "read reentrant" `Quick test_read_reentrant;
          Alcotest.test_case "write reentrant" `Quick test_write_reentrant;
          Alcotest.test_case "read->write upgrade" `Quick
            test_read_then_write_upgrade;
          Alcotest.test_case "read under own write" `Quick
            test_write_lock_while_holding_write;
          Alcotest.test_case "lock_index" `Quick test_lock_index_masks;
        ] );
      ( "read re-entrancy",
        on_both_paths "re-read records nothing" test_read_reentrant
        @ on_both_paths "read under own write, released by commit"
            test_read_under_own_write_released_by_commit
        @ on_both_paths "re-read while a writer drains"
            test_reread_while_writer_drains );
      ( "conflict resolution",
        [
          Alcotest.test_case "reader loses to lower-ts writer" `Quick
            test_reader_restarts_on_lower_ts_writer;
          Alcotest.test_case "writer loses to lower-ts writer" `Quick
            test_writer_restarts_on_lower_ts_writer;
          Alcotest.test_case "writer loses to lower-ts reader" `Quick
            test_writer_restarts_on_lower_ts_reader;
          Alcotest.test_case "timestamp taken once, kept" `Quick
            test_conflict_takes_timestamp_once;
          Alcotest.test_case "timestamps monotone" `Quick
            test_take_timestamp_monotone;
        ] );
      ( "waiting",
        [
          Alcotest.test_case "unconflicted holder is waited for" `Quick
            test_unconflicted_holder_is_waited_for;
          Alcotest.test_case "writer waits for reader" `Quick
            test_writer_waits_for_reader_release;
          Alcotest.test_case "wait_for_conflictor immediate" `Quick
            test_wait_for_conflictor_returns_when_cleared;
          Alcotest.test_case "wait_for_conflictor blocks" `Quick
            test_wait_for_conflictor_blocks_until_commit;
        ] );
      ( "read set",
        [
          QCheck_alcotest.to_alcotest qcheck_read_unlock_all;
          Alcotest.test_case "read_unlock_all idempotent" `Quick
            test_read_unlock_all_idempotent;
        ] );
      ( "announcements",
        [
          Alcotest.test_case "clear" `Quick test_clear_announcement;
          Alcotest.test_case "zero mutex" `Quick test_zero_mutex;
        ] );
      ( "stress",
        [
          Alcotest.test_case "mutual exclusion under churn" `Quick
            test_mutual_exclusion_stress;
        ] );
    ]
