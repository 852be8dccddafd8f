(* Tests for the DBx1000/YCSB substrate: table + index, workload
   generator, and every row-level concurrency control (atomicity of tuple
   updates under real concurrency). *)

let check = Alcotest.check

(* ---- Table / index ---- *)

let test_table_lookup_all () =
  let t = Dbx.Table.create ~num_rows:1000 in
  for k = 0 to 999 do
    let rid = Dbx.Table.lookup t k in
    if rid < 0 || rid >= 1000 then Alcotest.failf "rid out of range: %d" rid;
    (* prefill pattern: first byte = rid land 0xFF and key = rid *)
    check Alcotest.int "payload matches row"
      (rid land 0xFF)
      (Char.code (Bytes.get (Dbx.Table.payload t rid) 0))
  done

let test_table_lookup_bijective () =
  let t = Dbx.Table.create ~num_rows:512 in
  let seen = Hashtbl.create 512 in
  for k = 0 to 511 do
    let rid = Dbx.Table.lookup t k in
    if Hashtbl.mem seen rid then Alcotest.failf "rid %d reused" rid;
    Hashtbl.add seen rid ()
  done

let test_table_missing_key () =
  let t = Dbx.Table.create ~num_rows:16 in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Dbx.Table.lookup t 999))

let test_tuple_size () =
  let t = Dbx.Table.create ~num_rows:4 in
  check Alcotest.int "100 bytes" 100 (Bytes.length (Dbx.Table.payload t 0));
  check Alcotest.int "constant" 100 Dbx.Table.tuple_size

(* ---- YCSB generator ---- *)

let test_ycsb_txn_shape () =
  let g = Dbx.Ycsb.make_gen ~num_keys:10_000 ~theta:0.6 ~write_ratio:0.5 () in
  for _ = 1 to 200 do
    let txn = Dbx.Ycsb.next g in
    check Alcotest.int "16 accesses" Dbx.Ycsb.accesses_per_txn
      (Array.length txn.keys);
    Array.iter
      (fun k ->
        if k < 0 || k >= 10_000 then Alcotest.failf "key out of range: %d" k)
      txn.keys;
    (* keys distinct *)
    let sorted = Array.copy txn.keys in
    Array.sort compare sorted;
    for i = 1 to Array.length sorted - 1 do
      if sorted.(i) = sorted.(i - 1) then
        Alcotest.failf "duplicate key %d" sorted.(i)
    done
  done

let test_ycsb_write_ratio () =
  let g = Dbx.Ycsb.make_gen ~num_keys:1000 ~theta:0. ~write_ratio:0.5 () in
  let writes = ref 0 and total = ref 0 in
  for _ = 1 to 500 do
    let txn = Dbx.Ycsb.next g in
    Array.iter
      (fun op ->
        incr total;
        if op = Dbx.Ycsb.Write then incr writes)
      txn.ops
  done;
  let ratio = float_of_int !writes /. float_of_int !total in
  if ratio < 0.4 || ratio > 0.6 then Alcotest.failf "write ratio %f" ratio

(* Golden stream for seed 5: the generator's keys and ops must stay
   bit-identical, or every benchmark input changes. *)
let test_ycsb_golden () =
  let g =
    Dbx.Ycsb.make_gen ~seed:5 ~num_keys:1000 ~theta:0.9 ~write_ratio:0.5 ()
  in
  List.iter
    (fun (keys, ops) ->
      let txn = Dbx.Ycsb.next g in
      check Alcotest.(array int) "golden keys" keys txn.keys;
      check Alcotest.string "golden ops" ops
        (String.init (Array.length txn.ops) (fun i ->
             if txn.ops.(i) = Dbx.Ycsb.Write then 'W' else 'R')))
    [
      ( [| 59; 0; 682; 19; 235; 50; 727; 176; 21; 321; 41; 339; 355; 241; 10; 413 |],
        "WRRRRRRRRWWRRRWW" );
      ( [| 106; 360; 31; 759; 193; 43; 102; 429; 226; 38; 390; 16; 0; 277; 605; 67 |],
        "WRRRRRWRWRRRWWWR" );
      ( [| 519; 391; 39; 301; 0; 1; 47; 464; 90; 461; 630; 72; 126; 530; 5; 51 |],
        "RRRWWWWRWRWRWWRR" );
    ]

let test_ycsb_contention_levels () =
  check (Alcotest.float 1e-9) "high" 0.9 (Dbx.Ycsb.contention_theta `High);
  check (Alcotest.float 1e-9) "medium" 0.6 (Dbx.Ycsb.contention_theta `Medium);
  check (Alcotest.float 1e-9) "low" 0. (Dbx.Ycsb.contention_theta `Low)

(* ---- concurrency controls ---- *)

(* write_work bumps bytes 0..7 together, so atomicity means: for every
   row, bytes 0..7 are all equal. *)
let assert_rows_consistent table =
  for rid = 0 to Dbx.Table.num_rows table - 1 do
    let p = Dbx.Table.payload table rid in
    let b0 = Bytes.get p 0 in
    for i = 1 to 7 do
      if Bytes.get p i <> b0 then
        Alcotest.failf "row %d torn at byte %d" rid i
    done
  done

let cc_single_thread (name, cc) =
  let test () =
    let (module C : Dbx.Cc_intf.CC) = cc in
    let table = Dbx.Table.create ~num_rows:256 in
    let state = C.create table in
    ignore (Util.Tid.register ());
    let tid = Util.Tid.get () in
    let g = Dbx.Ycsb.make_gen ~num_keys:256 ~theta:0. ~write_ratio:0.5 () in
    for _ = 1 to 100 do
      let aborts = C.execute state ~tid (Dbx.Ycsb.next g) in
      check Alcotest.int "no aborts single-threaded" 0 aborts
    done;
    assert_rows_consistent table
  in
  Alcotest.test_case (name ^ " single-thread") `Quick test

let cc_concurrent (name, cc) =
  let test () =
    let table = Dbx.Table.create ~num_rows:512 in
    let row =
      Dbx.Runner.run ~cc ~table ~theta:0.6 ~write_ratio:0.5 ~threads:4
        ~seconds:0.3
    in
    check Alcotest.string "cc name" name row.cc;
    if row.commits <= 0 then Alcotest.fail "no transactions committed";
    assert_rows_consistent table
  in
  Alcotest.test_case (name ^ " concurrent atomicity") `Quick test

let cc_high_contention (name, cc) =
  let test () =
    (* Tiny table + skew: conflicts on nearly every transaction. *)
    let table = Dbx.Table.create ~num_rows:64 in
    let row =
      Dbx.Runner.run ~cc ~table ~theta:0.9 ~write_ratio:0.5 ~threads:4
        ~seconds:0.3
    in
    if row.commits <= 0 then Alcotest.fail "no transactions committed";
    assert_rows_consistent table
  in
  Alcotest.test_case (name ^ " high contention") `Quick test

(* The generator never repeats a key inside a transaction, so drive the
   lock-upgrade (read→write) and write-then-read paths with hand-built
   transactions. *)
let cc_upgrade_paths (name, cc) =
  let test () =
    let (module C : Dbx.Cc_intf.CC) = cc in
    let table = Dbx.Table.create ~num_rows:32 in
    let state = C.create table in
    ignore (Util.Tid.register ());
    let tid = Util.Tid.get () in
    let txn ops keys = { Dbx.Ycsb.keys; ops } in
    (* read k then write k: shared → exclusive upgrade *)
    let t1 = txn [| Dbx.Ycsb.Read; Dbx.Ycsb.Write |] [| 5; 5 |] in
    check Alcotest.int "upgrade commits" 0 (C.execute state ~tid t1);
    (* write k then read k: read under own exclusive lock *)
    let t2 = txn [| Dbx.Ycsb.Write; Dbx.Ycsb.Read |] [| 7; 7 |] in
    check Alcotest.int "write-then-read commits" 0 (C.execute state ~tid t2);
    (* double write to the same key *)
    let t3 = txn [| Dbx.Ycsb.Write; Dbx.Ycsb.Write |] [| 9; 9 |] in
    check Alcotest.int "double write commits" 0 (C.execute state ~tid t3);
    assert_rows_consistent table;
    (* rows 5 and 7 were written once, row 9 twice *)
    check Alcotest.int "row 9 bumped twice"
      ((9 + 2) land 0xFF)
      (Char.code (Bytes.get (Dbx.Table.payload table (Dbx.Table.lookup table 9)) 0))
  in
  Alcotest.test_case (name ^ " upgrade paths") `Quick test

(* Worker contexts are built lazily, each by its own worker: none after
   [create], one per executing tid, the same one on every call, and
   distinct ones for two domains sharing the engine. *)
let cc_worker_contexts (name, cc) =
  let test () =
    let (module C : Dbx.Cc_intf.CC) = cc in
    let table = Dbx.Table.create ~num_rows:256 in
    let state = C.create table in
    let ws = C.workers state in
    check Alcotest.int "no context after create" 0 (Dbx.Per_worker.count ws);
    let tid = Util.Tid.get () in
    let g = Dbx.Ycsb.make_gen ~num_keys:256 ~theta:0. ~write_ratio:0.5 () in
    ignore (C.execute state ~tid (Dbx.Ycsb.next g));
    check Alcotest.int "one context after one execute" 1 (Dbx.Per_worker.count ws);
    let first =
      match Dbx.Per_worker.find ws tid with
      | Some w -> w
      | None -> Alcotest.fail "no context for the executing tid"
    in
    ignore (C.execute state ~tid (Dbx.Ycsb.next g));
    (match Dbx.Per_worker.find ws tid with
    | Some w when w == first -> ()
    | _ -> Alcotest.fail "the context was not reused");
    let seen =
      Harness.Exec.run_each ~threads:2 (fun i ->
          let tid = Util.Tid.get () in
          let g =
            Dbx.Ycsb.make_gen ~seed:(11 + i) ~num_keys:256 ~theta:0.9
              ~write_ratio:0.5 ()
          in
          for _ = 1 to 200 do
            ignore (C.execute state ~tid (Dbx.Ycsb.next g))
          done;
          (tid, Dbx.Per_worker.find ws tid))
    in
    (match seen with
    | [ (t0, Some w0); (t1, Some w1) ] ->
        if t0 = t1 then Alcotest.fail "two domains shared a tid";
        if w0 == w1 then Alcotest.fail "two domains shared a context"
    | _ -> Alcotest.fail "a domain executed without a context");
    assert_rows_consistent table
  in
  Alcotest.test_case (name ^ " worker contexts") `Quick test

(* Read release under contention: two domains run skewed YCSB
   transactions, every third one upgrading its first key (read, then
   write), through Cc_2plsf directly.  Afterwards no lock may be held —
   a read bit left behind by a commit or a restart shows in the sweep —
   and every row must be untorn. *)
let test_cc_2plsf_lock_sweep () =
  let table = Dbx.Table.create ~num_rows:256 in
  let state = Dbx.Cc_2plsf.create table in
  ignore
    (Harness.Exec.run_each ~threads:2 (fun i ->
         let tid = Util.Tid.get () in
         let g =
           Dbx.Ycsb.make_gen ~seed:(7 + i) ~num_keys:256 ~theta:0.9
             ~write_ratio:0.5 ()
         in
         for n = 1 to 300 do
           let txn = Dbx.Ycsb.next g in
           if n mod 3 = 0 then begin
             txn.keys.(1) <- txn.keys.(0);
             txn.ops.(0) <- Dbx.Ycsb.Read;
             txn.ops.(1) <- Dbx.Ycsb.Write
           end;
           ignore (Dbx.Cc_2plsf.execute state ~tid txn)
         done));
  check Alcotest.int "no leaked locks" 0 (Dbx.Cc_2plsf.leaked_locks state);
  assert_rows_consistent table

(* ---- undo arena ---- *)

(* Longer than the arena's initial [accesses_per_txn] images, and row 5
   is written twice: rollback must restore its oldest image. *)
let long_write_keys =
  Array.init (Dbx.Ycsb.accesses_per_txn + 2) (fun i ->
      if i = Dbx.Ycsb.accesses_per_txn + 1 then 5 else i)

let snapshot table =
  Array.init (Dbx.Table.num_rows table) (fun rid ->
      Bytes.copy (Dbx.Table.payload table rid))

(* Every row equals its snapshot, except that bytes 0..7 of row [rid]
   were bumped [bumps rid] times by [Cc_intf.write_work]. *)
let check_rows_against before table ~bumps =
  Array.iteri
    (fun rid image ->
      let expected = Bytes.copy image in
      for i = 0 to 7 do
        Bytes.set expected i
          (Char.chr ((Char.code (Bytes.get image i) + bumps rid) land 0xFF))
      done;
      if not (Bytes.equal expected (Dbx.Table.payload table rid)) then
        Alcotest.failf "row %d differs from its expected image" rid)
    before

(* A failed checkpoint poisons the log behind the engine's back, so the
   next commit record is refused inside the commit window, with every
   write lock held: the transaction must roll back completely. *)
let test_undo_2plsf_refused_commit () =
  let module Wal = Twoplsf_wal.Wal in
  let module Wal_io = Twoplsf_wal.Wal_io in
  let table = Dbx.Table.create ~num_rows:64 in
  (* full after the first write: the table image is refused *)
  let io =
    Wal_io.faulty
      (Wal_io.fault_config ~seed:1 ~enospc_after_bytes:1 ())
      (Twoplsf_wal.Sim_fs.io (Twoplsf_wal.Sim_fs.create ()))
  in
  let w =
    Wal.create (Wal.config ~io ~dir:"wal" ()) (Dbx.Cc_2plsf.wal_store table)
  in
  let cc = Dbx.Cc_2plsf.create table in
  Dbx.Cc_2plsf.set_wal cc (Some w);
  let tid = Util.Tid.get () in
  (* the first commit record fills the device *)
  ignore
    (Dbx.Cc_2plsf.execute cc ~tid { Dbx.Ycsb.keys = [| 40 |]; ops = [| Dbx.Ycsb.Write |] });
  (match Wal.checkpoint w with
  | () -> Alcotest.fail "a table image fit on a full device"
  | exception Wal.Degraded _ -> ());
  let before = snapshot table in
  let txn =
    {
      Dbx.Ycsb.keys = long_write_keys;
      ops = Array.map (fun _ -> Dbx.Ycsb.Write) long_write_keys;
    }
  in
  (match Dbx.Cc_2plsf.execute cc ~tid txn with
  | _ -> Alcotest.fail "commit acknowledged on a refused log"
  | exception Stm_intf.Degraded_read_only _ -> ());
  check_rows_against before table ~bumps:(fun _ -> 0);
  check Alcotest.int "no leaked locks" 0 (Dbx.Cc_2plsf.leaked_locks cc);
  Dbx.Cc_2plsf.set_wal cc None;
  Wal.stop w

(* NO_WAIT rolls back whenever the long transaction's last access, a
   read of row 63, meets the other domain's write lock on it.  After the
   retries every row must carry exactly the committed bumps. *)
let test_undo_2pl_conflict_rollback () =
  let module C = Dbx.Cc_2pl.Make (struct
    let variant = Dbx.Cc_2pl.No_wait
  end) in
  let table = Dbx.Table.create ~num_rows:64 in
  let cc = C.create table in
  let before = snapshot table in
  let hot = 63 in
  let long =
    {
      Dbx.Ycsb.keys = Array.append long_write_keys [| hot |];
      ops =
        Array.append
          (Array.map (fun _ -> Dbx.Ycsb.Write) long_write_keys)
          [| Dbx.Ycsb.Read |];
    }
  in
  (* holds the write lock on [hot] while it reads 40 other rows *)
  let holder =
    {
      Dbx.Ycsb.keys = Array.init 41 (fun i -> if i = 0 then hot else 20 + i);
      ops = Array.init 41 (fun i -> if i = 0 then Dbx.Ycsb.Write else Dbx.Ycsb.Read);
    }
  in
  let stop = Atomic.make false in
  let counts =
    Harness.Exec.run_each ~threads:2 (fun i ->
        let tid = Util.Tid.get () in
        let commits = ref 0 and aborts = ref 0 in
        if i = 0 then begin
          let t0 = Util.Clock.now_ns () in
          while !aborts = 0 && Util.Clock.now_ns () - t0 < 5_000_000_000 do
            aborts := !aborts + C.execute cc ~tid long;
            incr commits
          done;
          Atomic.set stop true
        end
        else
          while not (Atomic.get stop) do
            ignore (C.execute cc ~tid holder);
            incr commits
          done;
        (!commits, !aborts))
  in
  let long_commits, aborts = List.nth counts 0 in
  let holder_commits, _ = List.nth counts 1 in
  if aborts = 0 then Alcotest.fail "no conflict forced a rollback in 5 s";
  let bumps rid =
    let writes = ref 0 in
    Array.iter (fun k -> if k = rid then incr writes) long_write_keys;
    (!writes * long_commits) + if rid = hot then holder_commits else 0
  in
  check_rows_against before table ~bumps;
  check Alcotest.int "no leaked locks" 0 (C.leaked_locks cc)

(* ---- resolve pass ---- *)

(* An unknown key is met by the resolve pass, before the first lock:
   [Not_found] escapes with no lock held and no row written, and another
   domain's transaction on the first key then commits. *)
let cc_unknown_key (name, cc) =
  let test () =
    let (module C : Dbx.Cc_intf.CC) = cc in
    let table = Dbx.Table.create ~num_rows:100 in
    let state = C.create table in
    let tid = Util.Tid.get () in
    let before = snapshot table in
    let bad =
      {
        Dbx.Ycsb.keys = [| 1; 2; 1000 |];
        ops = [| Dbx.Ycsb.Write; Dbx.Ycsb.Read; Dbx.Ycsb.Read |];
      }
    in
    (match C.execute state ~tid bad with
    | _ -> Alcotest.fail "a transaction on an unknown key committed"
    | exception Not_found -> ());
    check Alcotest.int "no leaked locks" 0 (C.leaked_locks state);
    check_rows_against before table ~bumps:(fun _ -> 0);
    let later = { Dbx.Ycsb.keys = [| 1 |]; ops = [| Dbx.Ycsb.Write |] } in
    (match
       Harness.Exec.run_each ~threads:1 (fun _ ->
           C.execute state ~tid:(Util.Tid.get ()) later)
     with
    | [ aborts ] -> check Alcotest.int "row 1 commits first try" 0 aborts
    | _ -> Alcotest.fail "expected one worker");
    check_rows_against before table ~bumps:(fun rid -> if rid = 1 then 1 else 0)
  in
  Alcotest.test_case (name ^ " unknown key takes no lock") `Quick test

(* Once a worker's context and logs have grown, one domain executing
   pre-drawn 16-access θ=0.6 transactions over 10k rows allocates no
   minor-heap words: no conflict, so no wait builds its backoff. *)
let cc_allocation_free (name, cc) =
  let test () =
    let (module C : Dbx.Cc_intf.CC) = cc in
    let table = Dbx.Table.create ~num_rows:10_000 in
    let state = C.create table in
    let tid = Util.Tid.get () in
    let g = Dbx.Ycsb.make_gen ~num_keys:10_000 ~theta:0.6 ~write_ratio:0.5 () in
    let txns =
      Array.init 64 (fun _ ->
          let t = Dbx.Ycsb.next g in
          { Dbx.Ycsb.keys = Array.copy t.keys; ops = Array.copy t.ops })
    in
    Array.iter (fun txn -> ignore (C.execute state ~tid txn)) txns;
    let rounds = 16 in
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      for i = 0 to Array.length txns - 1 do
        ignore (C.execute state ~tid txns.(i))
      done
    done;
    let per_txn =
      (Gc.minor_words () -. w0) /. float_of_int (rounds * Array.length txns)
    in
    if per_txn >= 1. then
      Alcotest.failf "%.1f minor words per transaction" per_txn
  in
  Alcotest.test_case (name ^ " no allocation per transaction") `Quick test

let () =
  ignore (Util.Tid.register ());
  Alcotest.run "dbx"
    [
      ( "table",
        [
          Alcotest.test_case "lookup all keys" `Quick test_table_lookup_all;
          Alcotest.test_case "lookup bijective" `Quick
            test_table_lookup_bijective;
          Alcotest.test_case "missing key" `Quick test_table_missing_key;
          Alcotest.test_case "tuple size" `Quick test_tuple_size;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "txn shape" `Quick test_ycsb_txn_shape;
          Alcotest.test_case "write ratio" `Quick test_ycsb_write_ratio;
          Alcotest.test_case "contention levels" `Quick
            test_ycsb_contention_levels;
          Alcotest.test_case "golden stream" `Quick test_ycsb_golden;
        ] );
      ( "undo arena",
        [
          Alcotest.test_case "2PLSF refused commit rolls back" `Quick
            test_undo_2plsf_refused_commit;
          Alcotest.test_case "NO_WAIT conflict rolls back" `Quick
            test_undo_2pl_conflict_rollback;
        ] );
      ("cc single-thread", List.map cc_single_thread Dbx.Runner.ccs);
      ("cc upgrade paths", List.map cc_upgrade_paths Dbx.Runner.ccs);
      ("cc concurrent", List.map cc_concurrent Dbx.Runner.ccs);
      ("cc high contention", List.map cc_high_contention Dbx.Runner.ccs);
      ("cc worker contexts", List.map cc_worker_contexts Dbx.Runner.ccs);
      ("cc unknown key", List.map cc_unknown_key Dbx.Runner.ccs);
      ("cc allocation", List.map cc_allocation_free Dbx.Runner.ccs);
      ( "cc 2plsf",
        [
          Alcotest.test_case "lock sweep after contended YCSB" `Quick
            test_cc_2plsf_lock_sweep;
        ] );
    ]
