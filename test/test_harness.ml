(* Tests for the benchmark harness itself: execution, workload mixes,
   latency collection, a smoke pass of the set/map drivers for every
   structure kind, and the shared transfer kernel and its audit. *)

let check = Alcotest.check

(* ---- Exec ---- *)

let test_run_each_results_in_order () =
  let rs = Harness.Exec.run_each ~threads:4 (fun i -> i * i) in
  check (Alcotest.list Alcotest.int) "ordered results" [ 0; 1; 4; 9 ] rs

let test_run_timed_counts_ops () =
  let r =
    Harness.Exec.run_timed ~threads:2 ~seconds:0.1 (fun _ should_stop ->
        let n = ref 0 in
        while not (should_stop ()) do
          incr n
        done;
        !n)
  in
  if r.ops <= 0 then Alcotest.fail "no ops";
  if r.seconds < 0.05 then Alcotest.failf "too short: %f" r.seconds;
  let tp = float_of_int r.ops /. r.seconds in
  if abs_float (tp -. r.throughput) > 1. then Alcotest.fail "throughput math"

let test_run_timed_stops () =
  let (_ : Harness.Exec.result) =
    Harness.Exec.run_timed ~threads:1 ~seconds:0.05 (fun _ should_stop ->
        let n = ref 0 in
        while not (should_stop ()) do
          incr n
        done;
        !n)
  in
  (* reaching here is the assertion: the stop flag terminated the loop *)
  ()

(* ---- Workload ---- *)

let test_mix_labels () =
  check Alcotest.string "wh" "50i/50r"
    (Harness.Workload.mix_label Harness.Workload.write_heavy);
  check Alcotest.string "rm" "10i/10r/80l"
    (Harness.Workload.mix_label Harness.Workload.read_mostly);
  check Alcotest.string "ro" "100l"
    (Harness.Workload.mix_label Harness.Workload.read_only);
  check Alcotest.string "mu" "1i/1r/98u"
    (Harness.Workload.mix_label Harness.Workload.map_update)

let count_ops mix n =
  let rng = Util.Sprng.create 5 in
  let i = ref 0 and r = ref 0 and l = ref 0 and u = ref 0 in
  for _ = 1 to n do
    match Harness.Workload.pick mix rng with
    | Harness.Workload.Insert -> incr i
    | Harness.Workload.Remove -> incr r
    | Harness.Workload.Lookup -> incr l
    | Harness.Workload.Update -> incr u
  done;
  (!i, !r, !l, !u)

let test_mix_proportions () =
  let n = 20_000 in
  let i, r, l, u = count_ops Harness.Workload.read_mostly n in
  check Alcotest.int "sums" n (i + r + l + u);
  let pct x = 100 * x / n in
  if abs (pct i - 10) > 3 then Alcotest.failf "insert pct %d" (pct i);
  if abs (pct r - 10) > 3 then Alcotest.failf "remove pct %d" (pct r);
  if abs (pct l - 80) > 3 then Alcotest.failf "lookup pct %d" (pct l);
  check Alcotest.int "no updates" 0 u

let test_mix_read_only_pure () =
  let i, r, l, u = count_ops Harness.Workload.read_only 1_000 in
  check Alcotest.int "all lookups" 1_000 l;
  check Alcotest.int "none else" 0 (i + r + u)

(* ---- Latency ---- *)

let test_latency_percentiles () =
  let lat = Harness.Latency.create ~threads:2 in
  for i = 1 to 50 do
    Harness.Latency.record lat 0 (float_of_int i)
  done;
  for i = 51 to 100 do
    Harness.Latency.record lat 1 (float_of_int i)
  done;
  check Alcotest.int "count" 100 (Harness.Latency.count lat);
  let ps = Harness.Latency.percentiles lat [ 50.; 99. ] in
  check (Alcotest.float 1e-9) "p50" 50. (List.assoc 50. ps);
  check (Alcotest.float 1e-9) "p99" 99. (List.assoc 99. ps);
  check (Alcotest.float 1e-9) "max" 100. (Harness.Latency.max_latency lat)

let test_latency_empty_raises () =
  let lat = Harness.Latency.create ~threads:1 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentiles_in_place: empty sample") (fun () ->
      ignore (Harness.Latency.percentiles lat [ 50. ]))

(* ---- Driver smoke: every structure kind produces sane rows ---- *)

let driver_smoke kind =
  let test () =
    let row =
      Harness.Driver.run_set_bench ~stm:Baselines.Registry.twoplsf
        ~structure:kind ~mix:Harness.Workload.read_mostly ~range:256 ~threads:2
        ~seconds:0.1
    in
    check Alcotest.string "label" (Harness.Driver.structure_label kind)
      row.structure;
    if row.throughput <= 0. then Alcotest.fail "no throughput";
    if row.commits <= 0 then Alcotest.fail "no commits"
  in
  Alcotest.test_case (Harness.Driver.structure_label kind) `Quick test

let test_map_driver_smoke () =
  let row =
    Harness.Driver.run_map_bench ~stm:Baselines.Registry.twoplsf
      ~structure:Harness.Driver.Ravl_s ~range:256 ~threads:2 ~seconds:0.1
  in
  check Alcotest.string "mix" "1i/1r/98u" row.mix;
  if row.commits <= 0 then Alcotest.fail "no commits"

(* ---- Transfer: the shared conserved-transfer kernel ---- *)

module T = Harness.Transfer.Make (Twoplsf.Stm)

let balances (t : T.t) =
  Array.map
    (fun tv -> Twoplsf.Stm.atomic (fun tx -> Twoplsf.Stm.read tx tv))
    t.accounts

(* [transfer] takes exactly one draw from the generator: a shadow stream
   with the same seed predicts which calls are read-only, and every other
   call with [a <> b] moves exactly [amt]. *)
let test_transfer_one_draw () =
  let n = 4 in
  let t = T.create ~n ~initial:100 in
  let rng = Util.Sprng.create 42 and shadow = Util.Sprng.create 42 in
  let picks = Util.Sprng.create 7 in
  let read_only = ref 0 and same = ref 0 in
  for k = 1 to 400 do
    let a = Util.Sprng.int picks n and b = Util.Sprng.int picks n in
    let amt = 1 + (k mod 5) in
    let before = balances t in
    let ro = Util.Sprng.int shadow 8 = 0 in
    if ro then incr read_only;
    if a = b then incr same;
    T.transfer t rng ~a ~b ~amt;
    let expected = Array.copy before in
    if (not ro) && a <> b then begin
      expected.(a) <- expected.(a) - amt;
      expected.(b) <- expected.(b) + amt
    end;
    check
      (Alcotest.array Alcotest.int)
      (Printf.sprintf "balances after call %d" k)
      expected (balances t)
  done;
  if !read_only = 0 || !read_only > 400 / 4 then
    Alcotest.failf "%d read-only calls of 400, expected about 50" !read_only;
  if !same = 0 then Alcotest.fail "no a = b call exercised"

let test_audit_detects_imbalance () =
  let t = T.create ~n:8 ~initial:100 in
  let a = T.audit t in
  check Alcotest.int "total" 800 a.Harness.Transfer.total;
  check Alcotest.int "expected" 800 a.Harness.Transfer.expected;
  check Alcotest.bool "clean audit ok" true (Harness.Transfer.audit_ok a);
  (* a write outside [transfer] breaks conservation *)
  Twoplsf.Stm.atomic (fun tx -> Twoplsf.Stm.write tx t.accounts.(3) 99);
  let a = T.audit t in
  check Alcotest.int "total" 799 a.Harness.Transfer.total;
  check Alcotest.bool "not conserved" false (Harness.Transfer.conserved a);
  check Alcotest.bool "audit fails" false (Harness.Transfer.audit_ok a);
  check Alcotest.int "no leaked lock" 0 a.Harness.Transfer.leaked

(* Two domains of transfers over 4 accounts, for every STM. *)
let test_transfer_conserves_all_stms () =
  List.iter
    (fun (module S : Stm_intf.STM) ->
      let module T = Harness.Transfer.Make (S) in
      let t = T.create ~n:4 ~initial:100 in
      ignore
        (Harness.Exec.run_each ~threads:2 (fun i ->
             let rng = Util.Sprng.create (0x5EED + i) in
             for _ = 1 to 300 do
               let a = Util.Sprng.int rng 4 and b = Util.Sprng.int rng 4 in
               T.transfer t rng ~a ~b ~amt:(1 + Util.Sprng.int rng 9)
             done));
      let a = T.audit t in
      check Alcotest.int (S.name ^ ": conserved") 400 a.Harness.Transfer.total;
      check Alcotest.int (S.name ^ ": no leaked lock") 0
        a.Harness.Transfer.leaked)
    Baselines.Registry.all

let () =
  ignore (Util.Tid.register ());
  Alcotest.run "harness"
    [
      ( "exec",
        [
          Alcotest.test_case "run_each order" `Quick
            test_run_each_results_in_order;
          Alcotest.test_case "run_timed counts" `Quick test_run_timed_counts_ops;
          Alcotest.test_case "run_timed stops" `Quick test_run_timed_stops;
        ] );
      ( "workload",
        [
          Alcotest.test_case "labels" `Quick test_mix_labels;
          Alcotest.test_case "proportions" `Quick test_mix_proportions;
          Alcotest.test_case "read-only pure" `Quick test_mix_read_only_pure;
        ] );
      ( "latency",
        [
          Alcotest.test_case "percentiles" `Quick test_latency_percentiles;
          Alcotest.test_case "empty raises" `Quick test_latency_empty_raises;
        ] );
      ( "driver",
        List.map driver_smoke
          Harness.Driver.[ List_s; Hash_s; Skip_s; Zip_s; Ravl_s ]
        @ [ Alcotest.test_case "map bench" `Quick test_map_driver_smoke ] );
      ( "transfer",
        [
          Alcotest.test_case "one draw, read-only one in eight" `Quick
            test_transfer_one_draw;
          Alcotest.test_case "audit detects imbalance" `Quick
            test_audit_detects_imbalance;
          Alcotest.test_case "conserves, every STM" `Quick
            test_transfer_conserves_all_stms;
        ] );
    ]
