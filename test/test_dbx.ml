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
        ] );
      ("cc single-thread", List.map cc_single_thread Dbx.Runner.ccs);
      ("cc upgrade paths", List.map cc_upgrade_paths Dbx.Runner.ccs);
      ("cc concurrent", List.map cc_concurrent Dbx.Runner.ccs);
      ("cc high contention", List.map cc_high_contention Dbx.Runner.ccs);
      ( "cc 2plsf",
        [
          Alcotest.test_case "lock sweep after contended YCSB" `Quick
            test_cc_2plsf_lock_sweep;
        ] );
    ]
