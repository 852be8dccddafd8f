(* The benchmark's statistics on fixed inputs. *)

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_buckets () =
  (* Exact below 2048, then contiguous buckets at most 1/1024 wide. *)
  List.iter
    (fun v -> Alcotest.(check int) "exact bucket" v (Pstats.bucket_of v))
    [ 0; 1; 1000; 2047 ];
  let prev = ref (Pstats.bucket_of 2047) in
  List.iter
    (fun v ->
      let i = Pstats.bucket_of v in
      let lo, width = Pstats.bucket_range i in
      Alcotest.(check bool) "value inside its bucket" true (lo <= v && v < lo + width);
      Alcotest.(check bool) "width within 1/1024" true (width * 1024 <= lo);
      Alcotest.(check bool) "monotone" true (i >= !prev);
      prev := i)
    [ 2048; 2049; 4095; 4096; 123_456; 9_999_999; 1 lsl 40 ];
  Alcotest.(check int) "first wide bucket follows the exact range" 2048 (Pstats.bucket_of 2048)

let test_percentiles () =
  let h = Pstats.hist_create () in
  for v = 1 to 100 do
    Pstats.hist_add h v
  done;
  (* Exact buckets give the nearest-rank value itself. *)
  close "p50 of 1..100" 50. (Pstats.hist_percentile h 50.);
  close "p99 of 1..100" 99. (Pstats.hist_percentile h 99.);
  close "p100 of 1..100" 100. (Pstats.hist_percentile h 100.);
  Alcotest.(check int) "samples at or above 99" 2 (Pstats.hist_count_above h 99);
  let big = Pstats.hist_create () in
  for _ = 1 to 10 do
    Pstats.hist_add big 1_000_000
  done;
  let p = Pstats.hist_percentile big 50. in
  Alcotest.(check bool) "wide bucket within 0.1%" true (Float.abs (p -. 1e6) /. 1e6 < 1e-3);
  let m = Pstats.hist_create () in
  Pstats.hist_merge ~into:m h;
  Pstats.hist_merge ~into:m big;
  Alcotest.(check int) "merge adds counts" 110 m.Pstats.n;
  close "merged p95 is in the big group" (Pstats.hist_percentile big 50.)
    (Pstats.hist_percentile m 95.)

let test_order_statistics () =
  let xs = Array.init 10 (fun i -> float (10 - i)) in
  close "median of 1..10" 5.5 (Pstats.median xs);
  close "median of odd count" 2. (Pstats.median [| 3.; 1.; 2. |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  (match Pstats.quantiles xs with
  | [ q1; q2; q3 ] ->
      close "q1" 2.75 q1;
      close "q2" 5.5 q2;
      close "q3" 8.25 q3
  | _ -> Alcotest.fail "three cut points");
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolates *)
  (match Pstats.quantiles [| 2.; 1. |] with
  | [ q1; q2; q3 ] ->
      close "q1 of two" 0.75 q1;
      close "q2 of two" 1.5 q2;
      close "q3 of two" 2.25 q3
  | _ -> Alcotest.fail "three cut points")

let test_scaling () =
  (* A host at half the reference speed: times halve, rates double. *)
  close "speed" 0.5 (Pstats.speed ~rate:2e8 ~ref_rate:4e8);
  close "time" 5. (Pstats.scale_time ~rate:2e8 ~ref_rate:4e8 10.);
  close "rate" 20. (Pstats.scale_rate ~rate:2e8 ~ref_rate:4e8 10.);
  close "reference host is unchanged" 7. (Pstats.scale_time ~rate:4e8 ~ref_rate:4e8 7.)

let test_self_time () =
  let open Pstats in
  Alcotest.(check int) "no children" 100 (self_ns ~start:0 ~stop:100 []);
  Alcotest.(check int) "two disjoint children" 50
    (self_ns ~start:0 ~stop:100 [ span 10 30; span 60 90 ]);
  Alcotest.(check int) "child clipped to the parent" 90
    (self_ns ~start:0 ~stop:100 [ span 90 150 ]);
  Alcotest.(check int) "aggregate counts its busy time only" 70
    (self_ns ~start:0 ~stop:100 [ { c_start = 5; c_stop = 95; c_busy = 30 } ]);
  Alcotest.(check int) "child outside the parent" 100
    (self_ns ~start:0 ~stop:100 [ span 200 300 ])

let () =
  Alcotest.run "pstats"
    [
      ( "pstats",
        [
          Alcotest.test_case "histogram buckets" `Quick test_buckets;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "median and quartiles" `Quick test_order_statistics;
          Alcotest.test_case "reference-rate scaling" `Quick test_scaling;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
    ]
