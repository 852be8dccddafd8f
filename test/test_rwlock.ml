(* Tests for the lock substrate: spinlock, seqlock, the three
   trylock reader-writer locks (2PL-RW, 2PL-RW-Dist, TLRW) and the flat
   combiner. *)

let check = Alcotest.check

(* ---- Spinlock ---- *)

let test_spinlock_mutual_exclusion () =
  let l = Rwlock.Spinlock.create () in
  let counter = ref 0 in
  let results =
    Harness.Exec.run_each ~threads:4 (fun _ ->
        for _ = 1 to 1_000 do
          Rwlock.Spinlock.with_lock l (fun () -> incr counter)
        done)
  in
  ignore results;
  check Alcotest.int "no lost updates" 4_000 !counter

let test_spinlock_trylock () =
  let l = Rwlock.Spinlock.create () in
  check Alcotest.bool "first" true (Rwlock.Spinlock.try_lock l);
  check Alcotest.bool "second" false (Rwlock.Spinlock.try_lock l);
  Rwlock.Spinlock.unlock l;
  check Alcotest.bool "after unlock" true (Rwlock.Spinlock.try_lock l)

let test_spinlock_exception_releases () =
  let l = Rwlock.Spinlock.create () in
  (try Rwlock.Spinlock.with_lock l (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "released" true (Rwlock.Spinlock.try_lock l)

(* ---- Seqlock ---- *)

let test_seqlock_read_validate () =
  let s = Rwlock.Seqlock.create () in
  let snap = Rwlock.Seqlock.read_begin s in
  check Alcotest.bool "valid before write" true
    (Rwlock.Seqlock.read_validate s snap);
  Rwlock.Seqlock.write_lock s;
  Rwlock.Seqlock.write_unlock s;
  check Alcotest.bool "invalid after write" false
    (Rwlock.Seqlock.read_validate s snap)

let test_seqlock_sequence_parity () =
  let s = Rwlock.Seqlock.create () in
  check Alcotest.int "initially even" 0 (Rwlock.Seqlock.sequence s);
  Rwlock.Seqlock.write_lock s;
  check Alcotest.int "odd while held" 1 (Rwlock.Seqlock.sequence s land 1);
  Rwlock.Seqlock.write_unlock s;
  check Alcotest.int "even after" 0 (Rwlock.Seqlock.sequence s land 1)

let test_seqlock_try_write () =
  let s = Rwlock.Seqlock.create () in
  check Alcotest.bool "first" true (Rwlock.Seqlock.try_write_lock s);
  check Alcotest.bool "second" false (Rwlock.Seqlock.try_write_lock s);
  Rwlock.Seqlock.write_unlock s

(* ---- Read_indicator ---- *)

let test_ri_arrive_depart () =
  let ri = Rwlock.Read_indicator.create ~num_locks:128 in
  let tid = Util.Tid.register () in
  check Alcotest.bool "initially clear" false
    (Rwlock.Read_indicator.holds ri ~tid 5);
  Rwlock.Read_indicator.arrive ri ~tid 5;
  check Alcotest.bool "set" true (Rwlock.Read_indicator.holds ri ~tid 5);
  check Alcotest.bool "other lock clear" false
    (Rwlock.Read_indicator.holds ri ~tid 6);
  Rwlock.Read_indicator.arrive ri ~tid 5 (* idempotent *);
  Rwlock.Read_indicator.depart ri ~tid 5;
  check Alcotest.bool "cleared" false (Rwlock.Read_indicator.holds ri ~tid 5);
  Rwlock.Read_indicator.depart ri ~tid 5 (* idempotent *);
  check Alcotest.bool "still clear" false
    (Rwlock.Read_indicator.holds ri ~tid 5)

let test_ri_is_empty_excludes_self () =
  let ri = Rwlock.Read_indicator.create ~num_locks:64 in
  let tid = Util.Tid.register () in
  Rwlock.Read_indicator.arrive ri ~tid 3;
  check Alcotest.bool "empty excluding self" true
    (Rwlock.Read_indicator.is_empty ri ~self:tid 3);
  check Alcotest.bool "not empty for others" false
    (Rwlock.Read_indicator.is_empty ri ~self:(tid + 1) 3);
  Rwlock.Read_indicator.depart ri ~tid 3

let test_ri_same_word_isolation () =
  (* Locks 0..31 share a word per thread; bits must not interfere. *)
  let ri = Rwlock.Read_indicator.create ~num_locks:64 in
  let tid = Util.Tid.register () in
  for w = 0 to 31 do
    Rwlock.Read_indicator.arrive ri ~tid w
  done;
  for w = 0 to 31 do
    check Alcotest.bool "all set" true (Rwlock.Read_indicator.holds ri ~tid w)
  done;
  Rwlock.Read_indicator.depart ri ~tid 17;
  check Alcotest.bool "17 clear" false (Rwlock.Read_indicator.holds ri ~tid 17);
  for w = 0 to 31 do
    if w <> 17 then
      check Alcotest.bool "others survive" true
        (Rwlock.Read_indicator.holds ri ~tid w)
  done;
  for w = 0 to 31 do
    Rwlock.Read_indicator.depart ri ~tid w
  done

let test_ri_iter_readers () =
  let ri = Rwlock.Read_indicator.create ~num_locks:64 in
  let tids = Harness.Exec.run_each ~threads:3 (fun _ ->
      let tid = Util.Tid.get () in
      Rwlock.Read_indicator.arrive ri ~tid 9;
      tid)
  in
  let seen = ref [] in
  Rwlock.Read_indicator.iter_readers ri ~self:(-1) 9 (fun t -> seen := t :: !seen);
  check Alcotest.int "three readers" 3 (List.length !seen);
  List.iter
    (fun t ->
      check Alcotest.bool "reported" true (List.mem t !seen))
    tids

let qcheck_ri_model =
  (* Random arrive/depart sequences vs a model set of (tid, lock) pairs:
     holds/is_empty must agree with the model at every step. *)
  QCheck.Test.make ~name:"read-indicator vs model" ~count:150
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (triple bool (int_range 0 3) (int_range 0 63)))
    (fun steps ->
      let ri = Rwlock.Read_indicator.create ~num_locks:64 in
      let model = Hashtbl.create 32 in
      List.for_all
        (fun (arrive, tid, w) ->
          if arrive then begin
            Rwlock.Read_indicator.arrive ri ~tid w;
            Hashtbl.replace model (tid, w) ()
          end
          else begin
            Rwlock.Read_indicator.depart ri ~tid w;
            Hashtbl.remove model (tid, w)
          end;
          Rwlock.Read_indicator.holds ri ~tid w = Hashtbl.mem model (tid, w)
          && Rwlock.Read_indicator.is_empty ri ~self:tid w
             = not
                 (List.exists
                    (fun t -> t <> tid && Hashtbl.mem model (t, w))
                    [ 0; 1; 2; 3 ]))
        steps)

(* ---- trylock reader-writer locks, shared battery ---- *)

module Trylock_battery (L : Rwlock.Trylock_rw.S) = struct
  let t0 () = L.create ~num_locks:64

  let test_read_read () =
    let l = t0 () in
    check Alcotest.bool "r1" true (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "r2 shares" true (L.try_read_lock l ~tid:2 7);
    L.read_unlock l ~tid:1 7;
    L.read_unlock l ~tid:2 7

  let test_write_excludes_write () =
    let l = t0 () in
    check Alcotest.bool "w1" true (L.try_write_lock l ~tid:1 7);
    check Alcotest.bool "w2 fails" false (L.try_write_lock l ~tid:2 7);
    L.write_unlock l ~tid:1 7;
    check Alcotest.bool "w2 after release" true (L.try_write_lock l ~tid:2 7);
    L.write_unlock l ~tid:2 7

  let test_write_excludes_read () =
    let l = t0 () in
    check Alcotest.bool "w" true (L.try_write_lock l ~tid:1 7);
    check Alcotest.bool "r fails" false (L.try_read_lock l ~tid:2 7);
    L.write_unlock l ~tid:1 7;
    check Alcotest.bool "r after release" true (L.try_read_lock l ~tid:2 7);
    L.read_unlock l ~tid:2 7

  let test_read_blocks_other_writer () =
    let l = t0 () in
    check Alcotest.bool "r" true (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "w fails" false (L.try_write_lock l ~tid:2 7);
    L.read_unlock l ~tid:1 7;
    check Alcotest.bool "w after release" true (L.try_write_lock l ~tid:2 7);
    L.write_unlock l ~tid:2 7

  let test_upgrade () =
    let l = t0 () in
    check Alcotest.bool "r" true (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "upgrade" true (L.try_write_lock l ~tid:1 7);
    check Alcotest.bool "other writer fails" false (L.try_write_lock l ~tid:2 7);
    check Alcotest.bool "other reader fails" false (L.try_read_lock l ~tid:2 7);
    L.read_unlock l ~tid:1 7;
    L.write_unlock l ~tid:1 7;
    check Alcotest.bool "free again" true (L.try_write_lock l ~tid:2 7);
    L.write_unlock l ~tid:2 7

  let test_upgrade_blocked_by_reader () =
    let l = t0 () in
    check Alcotest.bool "r1" true (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "r2" true (L.try_read_lock l ~tid:2 7);
    check Alcotest.bool "upgrade blocked" false (L.try_write_lock l ~tid:1 7);
    L.read_unlock l ~tid:1 7;
    L.read_unlock l ~tid:2 7

  let test_reentrant () =
    let l = t0 () in
    check Alcotest.bool "r" true (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "r again" true (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "w" true (L.try_write_lock l ~tid:1 7);
    check Alcotest.bool "w again" true (L.try_write_lock l ~tid:1 7);
    L.read_unlock l ~tid:1 7;
    L.write_unlock l ~tid:1 7

  let test_independent_locks () =
    let l = t0 () in
    check Alcotest.bool "w on 3" true (L.try_write_lock l ~tid:1 3);
    check Alcotest.bool "w on 4 by other" true (L.try_write_lock l ~tid:2 4);
    check Alcotest.bool "r on 5" true (L.try_read_lock l ~tid:3 5);
    L.write_unlock l ~tid:1 3;
    L.write_unlock l ~tid:2 4;
    L.read_unlock l ~tid:3 5

  let test_holds () =
    let l = t0 () in
    check Alcotest.bool "no read" false (L.holds_read l ~tid:1 7);
    check Alcotest.bool "no write" false (L.holds_write l ~tid:1 7);
    ignore (L.try_read_lock l ~tid:1 7);
    check Alcotest.bool "read held" true (L.holds_read l ~tid:1 7);
    ignore (L.try_write_lock l ~tid:1 7);
    check Alcotest.bool "write held" true (L.holds_write l ~tid:1 7);
    L.read_unlock l ~tid:1 7;
    L.write_unlock l ~tid:1 7;
    check Alcotest.bool "write released" false (L.holds_write l ~tid:1 7)

  let test_concurrent_counter () =
    (* Mutual exclusion under real concurrency: writers protect a plain
       counter; the total must be exact. *)
    let l = t0 () in
    let counter = ref 0 in
    ignore
      (Harness.Exec.run_each ~threads:4 (fun _ ->
           let tid = Util.Tid.get () in
           let b = Util.Backoff.create () in
           let n = ref 0 in
           while !n < 500 do
             if L.try_write_lock l ~tid 7 then begin
               incr counter;
               incr n;
               L.write_unlock l ~tid 7
             end
             else Util.Backoff.once b
           done));
    check Alcotest.int "exact count" 2_000 !counter

  let cases =
    [
      Alcotest.test_case (L.name ^ " read/read share") `Quick test_read_read;
      Alcotest.test_case (L.name ^ " write/write exclude") `Quick
        test_write_excludes_write;
      Alcotest.test_case (L.name ^ " write blocks read") `Quick
        test_write_excludes_read;
      Alcotest.test_case (L.name ^ " read blocks writer") `Quick
        test_read_blocks_other_writer;
      Alcotest.test_case (L.name ^ " upgrade") `Quick test_upgrade;
      Alcotest.test_case (L.name ^ " upgrade blocked by reader") `Quick
        test_upgrade_blocked_by_reader;
      Alcotest.test_case (L.name ^ " reentrant") `Quick test_reentrant;
      Alcotest.test_case (L.name ^ " independent locks") `Quick
        test_independent_locks;
      Alcotest.test_case (L.name ^ " holds_*") `Quick test_holds;
      Alcotest.test_case (L.name ^ " concurrent counter") `Quick
        test_concurrent_counter;
    ]
end

module B_single = Trylock_battery (Rwlock.Rwl_single)
module B_dist = Trylock_battery (Rwlock.Rwl_dist)
module B_counter = Trylock_battery (Rwlock.Rwl_counter)

(* §2.3 demonstrated: 2PL over starvation-free mutexes still deadlocks (or
   with trylock, live-locks), while 2PLSF's tryOrWaitLock completes.  Two
   threads take two locks in opposite orders with [try_lock] — which never
   waits, so the mutex's fairness never comes into play — and give up
   after a bounded number of attempts; under the same schedule-free setup
   2PLSF finishes every transaction. *)
let test_sf_locks_are_not_enough () =
  let a = Rwlock.Spinlock.create () and b = Rwlock.Spinlock.create () in
  let give_ups = Atomic.make 0 in
  let attempts_per_txn = 50 in
  ignore
    (Harness.Exec.run_each ~threads:2 (fun i ->
         let first, second = if i = 0 then (a, b) else (b, a) in
         for _ = 1 to 100 do
           let committed = ref false in
           let tries = ref 0 in
           while (not !committed) && !tries < attempts_per_txn do
             incr tries;
             if Rwlock.Spinlock.try_lock first then begin
               if Rwlock.Spinlock.try_lock second then begin
                 committed := true;
                 Rwlock.Spinlock.unlock second
               end;
               Rwlock.Spinlock.unlock first
             end
           done;
           if not !committed then Atomic.incr give_ups
         done));
  (* The interesting observation is not an exact count (scheduling
     dependent) but that trylock-based 2PL *can* fail transactions no
     matter how starvation-free the mutex is, while 2PLSF cannot. *)
  let x = Twoplsf.Stm.tvar 0 and y = Twoplsf.Stm.tvar 0 in
  ignore
    (Harness.Exec.run_each ~threads:2 (fun i ->
         for _ = 1 to 100 do
           Twoplsf.Stm.atomic (fun tx ->
               if i = 0 then begin
                 Twoplsf.Stm.write tx x (Twoplsf.Stm.read tx x + 1);
                 Twoplsf.Stm.write tx y (Twoplsf.Stm.read tx y + 1)
               end
               else begin
                 Twoplsf.Stm.write tx y (Twoplsf.Stm.read tx y + 1);
                 Twoplsf.Stm.write tx x (Twoplsf.Stm.read tx x + 1)
               end)
         done));
  check Alcotest.int "2PLSF commits all 200" 200
    (Twoplsf.Stm.atomic (fun tx -> Twoplsf.Stm.read tx x));
  ignore (Atomic.get give_ups)

(* ---- Flat combiner ---- *)

let test_fc_single_thread () =
  let fc = Rwlock.Flat_combiner.create () in
  let tid = Util.Tid.register () in
  let r = Rwlock.Flat_combiner.execute fc ~tid (fun () -> 41 + 1) in
  check Alcotest.int "result" 42 r

let test_fc_exception_propagates () =
  let fc = Rwlock.Flat_combiner.create () in
  let tid = Util.Tid.register () in
  Alcotest.check_raises "exn" (Failure "boom") (fun () ->
      ignore (Rwlock.Flat_combiner.execute fc ~tid (fun () -> failwith "boom")));
  (* The combiner must survive a raising request. *)
  let r = Rwlock.Flat_combiner.execute fc ~tid (fun () -> 7) in
  check Alcotest.int "still works" 7 r

let test_fc_concurrent_sum () =
  let fc = Rwlock.Flat_combiner.create () in
  let total = ref 0 in
  ignore
    (Harness.Exec.run_each ~threads:4 (fun _ ->
         let tid = Util.Tid.get () in
         for _ = 1 to 500 do
           ignore
             (Rwlock.Flat_combiner.execute fc ~tid (fun () ->
                  total := !total + 1))
         done));
  check Alcotest.int "all executed exactly once" 2_000 !total

let test_fc_batch_hooks () =
  let starts = ref 0 and ends = ref 0 in
  let fc =
    Rwlock.Flat_combiner.create
      ~on_batch_start:(fun () -> incr starts)
      ~on_batch_end:(fun () -> incr ends)
      ()
  in
  let tid = Util.Tid.register () in
  ignore (Rwlock.Flat_combiner.execute fc ~tid (fun () -> ()));
  check Alcotest.bool "hooks ran" true (!starts >= 1 && !starts = !ends)

let () =
  Alcotest.run "rwlock"
    [
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_spinlock_mutual_exclusion;
          Alcotest.test_case "trylock" `Quick test_spinlock_trylock;
          Alcotest.test_case "exception releases" `Quick
            test_spinlock_exception_releases;
          Alcotest.test_case "sf locks are not enough (2.3)" `Quick
            test_sf_locks_are_not_enough;
        ] );
      ( "seqlock",
        [
          Alcotest.test_case "read validate" `Quick test_seqlock_read_validate;
          Alcotest.test_case "sequence parity" `Quick
            test_seqlock_sequence_parity;
          Alcotest.test_case "try write" `Quick test_seqlock_try_write;
        ] );
      ( "read-indicator",
        [
          Alcotest.test_case "arrive/depart" `Quick test_ri_arrive_depart;
          Alcotest.test_case "is_empty excludes self" `Quick
            test_ri_is_empty_excludes_self;
          Alcotest.test_case "same-word isolation" `Quick
            test_ri_same_word_isolation;
          Alcotest.test_case "iter readers" `Quick test_ri_iter_readers;
          QCheck_alcotest.to_alcotest qcheck_ri_model;
        ] );
      ("2PL-RW lock", B_single.cases);
      ("2PL-RW-Dist lock", B_dist.cases);
      ("TLRW lock", B_counter.cases);
      ( "flat-combiner",
        [
          Alcotest.test_case "single thread" `Quick test_fc_single_thread;
          Alcotest.test_case "exception propagates" `Quick
            test_fc_exception_propagates;
          Alcotest.test_case "concurrent sum" `Quick test_fc_concurrent_sum;
          Alcotest.test_case "batch hooks" `Quick test_fc_batch_hooks;
        ] );
    ]
