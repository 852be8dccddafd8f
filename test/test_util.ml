(* Unit and property tests for the util substrate: PRNG, zipfian
   generator, statistics, growable vectors, id generator, tid registry. *)

let check = Alcotest.check

(* ---- Sprng ---- *)

let test_sprng_deterministic () =
  let a = Util.Sprng.create 42 and b = Util.Sprng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Sprng.next a) (Util.Sprng.next b)
  done;
  (* Golden stream for seed 42: every benchmark input derives from these
     draws, so a representation change must leave them bit-identical. *)
  let r = Util.Sprng.create 42 in
  List.iter
    (fun v -> check Alcotest.int64 "golden next" v (Util.Sprng.next r))
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
      0x581CE1FF0E4AE394L ];
  List.iter
    (fun v -> check Alcotest.int "golden int" v (Util.Sprng.int r 1000))
    [ 250; 350; 925; 196 ];
  List.iter
    (fun v -> check (Alcotest.float 0.) "golden float" v (Util.Sprng.float r))
    [ 0x1.705b8770b3d7ep-2; 0x1.e54d738297f78p-2; 0x1.a3a39253bad8dp-1 ];
  List.iter
    (fun v -> check Alcotest.bool "golden bool" v (Util.Sprng.bool r))
    [ false; false; true; false; false; true; true; true ]

(* The first eight outputs for three seeds, recorded before the state
   was padded: padding must not change any workload's input. *)
let sprng_golden =
  [
    ( 0,
      [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
        0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
        0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ] );
    ( 42,
      [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
        0x581CE1FF0E4AE394L; 0x09BC585A244823F2L; 0xDE4431FA3C80DB06L;
        0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L ] );
    ( 1234,
      [ 0xBB0CF61B2F181CDBL; 0x97C7A1364DF06524L; 0x33BEFAE49BC025DAL;
        0x4E6241F252D0A033L; 0xB912E3FF44B145A5L; 0xB0BFB29E8C72A511L;
        0x7ECC3291B0181B9EL; 0x3A465F3F8F9CE09FL ] );
  ]

let test_sprng_golden_seeds () =
  List.iter
    (fun (seed, outputs) ->
      let r = Util.Sprng.create seed in
      List.iteri
        (fun i v ->
          check Alcotest.int64 (Printf.sprintf "seed %d, output %d" seed i) v
            (Util.Sprng.next r))
        outputs)
    sprng_golden

(* The state is the only part of the block a draw writes: find it by
   diffing the block's bytes around one [next], and require at least a
   cache line (64 bytes) of the block on either side of it. *)
let test_sprng_state_padded () =
  let r = Util.Sprng.create 1234 in
  let block : Bytes.t = Obj.obj (Obj.repr r) in
  let before = Bytes.copy block in
  ignore (Util.Sprng.next r);
  let changed = ref [] in
  Bytes.iteri (fun i c -> if c <> Bytes.get before i then changed := i :: !changed) block;
  match !changed with
  | [] -> Alcotest.fail "a draw changed no byte of the block"
  | last :: _ as changed ->
      let first = List.fold_left min last changed in
      if last - first >= 8 then Alcotest.failf "state spans bytes %d..%d" first last;
      if first < 64 then Alcotest.failf "state at byte %d: under 64 bytes from the start" first;
      if Bytes.length block - (last + 1) < 64 then
        Alcotest.failf "state ends at byte %d of %d: under 64 bytes from the end" last
          (Bytes.length block)

let test_sprng_int_range () =
  let rng = Util.Sprng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Sprng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_sprng_float_range () =
  let rng = Util.Sprng.create 9 in
  for _ = 1 to 10_000 do
    let f = Util.Sprng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "out of range: %f" f
  done

let test_sprng_spread () =
  (* Rough uniformity: each of 8 buckets gets 5-20% of 10k draws. *)
  let rng = Util.Sprng.create 11 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 10_000 do
    let v = Util.Sprng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      if c < 500 || c > 2000 then Alcotest.failf "skewed bucket: %d" c)
    buckets

(* ---- Zipf ---- *)

let test_zipf_uniform_theta0 () =
  let z = Util.Zipf.create ~n:100 ~theta:0. () in
  let seen = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Util.Zipf.next z in
    if k < 0 || k >= 100 then Alcotest.failf "out of range: %d" k;
    seen.(k) <- seen.(k) + 1
  done;
  (* uniform: expect ~200 each; allow wide slack *)
  Array.iteri
    (fun i c -> if c < 50 then Alcotest.failf "key %d undersampled: %d" i c)
    seen

let test_zipf_skew () =
  let z = Util.Zipf.create ~n:1000 ~theta:0.9 () in
  let hot = ref 0 and total = 20_000 in
  for _ = 1 to total do
    if Util.Zipf.next z < 10 then incr hot
  done;
  (* With theta=0.9 the 1% hottest keys draw far more than 1% of accesses. *)
  if !hot < total / 10 then
    Alcotest.failf "zipf not skewed enough: hot=%d/%d" !hot total

let test_zipf_range () =
  List.iter
    (fun theta ->
      let z = Util.Zipf.create ~n:37 ~theta () in
      for _ = 1 to 5_000 do
        let k = Util.Zipf.next z in
        if k < 0 || k >= 37 then
          Alcotest.failf "theta %f out of range: %d" theta k
      done)
    [ 0.; 0.3; 0.6; 0.9; 0.99 ]

(* ---- Stats ---- *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Util.Stats.mean [| 1.; 2.; 3.; 4. |]);
  check (Alcotest.float 1e-9) "empty" 0. (Util.Stats.mean [||])

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50. (Util.Stats.percentile xs 50.);
  check (Alcotest.float 1e-9) "p99" 99. (Util.Stats.percentile xs 99.);
  check (Alcotest.float 1e-9) "p100" 100. (Util.Stats.percentile xs 100.)

let test_stats_percentile_unsorted () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  check (Alcotest.float 1e-9) "p50 of shuffled" 3. (Util.Stats.percentile xs 50.)

let test_stats_percentiles_in_place () =
  let xs = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let ps = Util.Stats.percentiles_in_place xs [ 50.; 90.; 99. ] in
  check (Alcotest.float 1e-9) "p50" 499. (List.assoc 50. ps);
  check (Alcotest.float 1e-9) "p90" 899. (List.assoc 90. ps);
  check (Alcotest.float 1e-9) "p99" 989. (List.assoc 99. ps)

let test_stats_max () =
  check (Alcotest.float 1e-9) "max" 9. (Util.Stats.max [| 3.; 9.; 1. |]);
  check (Alcotest.float 1e-9) "all negative" (-1.)
    (Util.Stats.max [| -5.; -1.; -3. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.max: empty sample")
    (fun () -> ignore (Util.Stats.max [||]))

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "constant" 0. (Util.Stats.stddev [| 3.; 3.; 3. |]);
  check (Alcotest.float 1e-6) "spread" 2.
    (Util.Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

(* ---- Vec ---- *)

let test_vec_push_get () =
  let v = Util.Vec.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Util.Vec.push v i
  done;
  check Alcotest.int "length" 100 (Util.Vec.length v);
  for i = 0 to 99 do
    check Alcotest.int "get" i (Util.Vec.get v i)
  done

let test_vec_clear_reuse () =
  let v = Util.Vec.create ~capacity:2 ~dummy:0 () in
  Util.Vec.push v 1;
  Util.Vec.push v 2;
  Util.Vec.push v 3;
  Util.Vec.clear v;
  check Alcotest.bool "empty" true (Util.Vec.is_empty v);
  Util.Vec.push v 9;
  check Alcotest.int "after reuse" 9 (Util.Vec.get v 0)

let test_vec_iter_orders () =
  let v = Util.Vec.create ~dummy:0 () in
  List.iter (Util.Vec.push v) [ 1; 2; 3 ];
  let fwd = ref [] and bwd = ref [] in
  Util.Vec.iter (fun x -> fwd := x :: !fwd) v;
  Util.Vec.iter_rev (fun x -> bwd := x :: !bwd) v;
  check (Alcotest.list Alcotest.int) "forward" [ 3; 2; 1 ] !fwd;
  check (Alcotest.list Alcotest.int) "reverse" [ 1; 2; 3 ] !bwd

let test_vec_exists () =
  let v = Util.Vec.create ~dummy:0 () in
  List.iter (Util.Vec.push v) [ 2; 4; 6 ];
  check Alcotest.bool "found" true (Util.Vec.exists (fun x -> x = 4) v);
  check Alcotest.bool "absent" false (Util.Vec.exists (fun x -> x = 5) v)

let test_vec_get_bounds () =
  let v = Util.Vec.create ~dummy:0 () in
  Util.Vec.push v 1;
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Util.Vec.get v 1))

(* ---- Id_gen ---- *)

let test_id_gen_unique_single () =
  let seen = Hashtbl.create 64 in
  for _ = 1 to 5_000 do
    let id = Util.Id_gen.next () in
    if Hashtbl.mem seen id then Alcotest.failf "duplicate id %d" id;
    Hashtbl.add seen id ()
  done

let test_id_gen_unique_concurrent () =
  let results =
    Harness.Exec.run_each ~threads:4 (fun _ ->
        List.init 2_000 (fun _ -> Util.Id_gen.next ()))
  in
  let all = List.concat results in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun id ->
      if Hashtbl.mem seen id then Alcotest.failf "duplicate id %d" id;
      Hashtbl.add seen id ())
    all

(* ---- Tid ---- *)

let test_tid_register_idempotent () =
  let a = Util.Tid.register () in
  let b = Util.Tid.register () in
  check Alcotest.int "same" a b

let test_tid_distinct_across_domains () =
  ignore (Util.Tid.register ());
  let tids = Harness.Exec.run_each ~threads:4 (fun _ -> Util.Tid.get ()) in
  let sorted = List.sort_uniq compare tids in
  check Alcotest.int "distinct" 4 (List.length sorted);
  List.iter
    (fun t ->
      if t < 0 || t >= Util.Tid.max_threads then Alcotest.failf "bad tid %d" t)
    tids

let test_tid_high_water () =
  ignore (Util.Tid.register ());
  if Util.Tid.high_water () < 1 then Alcotest.fail "hwm < 1"

(* ---- Once ---- *)

let test_once_single () =
  let count = ref 0 in
  let o =
    Util.Once.create (fun () ->
        incr count;
        42)
  in
  check Alcotest.bool "not forced" false (Util.Once.is_forced o);
  check Alcotest.int "value" 42 (Util.Once.get o);
  check Alcotest.int "again" 42 (Util.Once.get o);
  check Alcotest.int "thunk ran once" 1 !count;
  check Alcotest.bool "forced" true (Util.Once.is_forced o)

let test_once_concurrent_force () =
  (* Regression: Lazy.force raises CamlinternalLazy.Undefined when domains
     race; Once must instead run the thunk exactly once and give everyone
     the same value. *)
  let count = Atomic.make 0 in
  let o =
    Util.Once.create (fun () ->
        Atomic.incr count;
        Unix.sleepf 0.01 (* widen the race window *);
        Atomic.get count)
  in
  let values = Harness.Exec.run_each ~threads:4 (fun _ -> Util.Once.get o) in
  check Alcotest.int "thunk ran once" 1 (Atomic.get count);
  List.iter (fun v -> check Alcotest.int "same value" 1 v) values

(* ---- Backoff ---- *)

(* Must be the first Backoff use in this process (its group runs first):
   both domains race to measure the spin budget.  A [Lazy] budget raised
   [CamlinternalLazy.Undefined] in one of them here. *)
let test_backoff_first_use_race () =
  let go = Atomic.make false in
  let waiter () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let b = Util.Backoff.create () in
    for _ = 1 to 3 do
      Util.Backoff.once b
    done
  in
  let d1 = Domain.spawn waiter and d2 = Domain.spawn waiter in
  Atomic.set go true;
  Domain.join d1;
  Domain.join d2

(* A short wait never sleeps: 200 steps fit inside the spin budget.
   Best of 3, so one preemption of the test process cannot fail it;
   sleeping from the 7th step, as earlier pacing did, takes ~13 ms. *)
let test_backoff_spins_before_sleeping () =
  let run () =
    let b = Util.Backoff.create () in
    let t0 = Util.Clock.now_ns () in
    for _ = 1 to 200 do
      Util.Backoff.once b
    done;
    Util.Clock.now_ns () - t0
  in
  let best = List.fold_left min max_int (List.init 3 (fun _ -> run ())) in
  if best >= 1_000_000 then Alcotest.failf "200 steps took %d ns" best

(* A long wait sleeps: the spin phase is bounded, so CPU time stays well
   under wall time. *)
let test_backoff_long_wait_sleeps () =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let b = Util.Backoff.create () in
  let cpu0 = cpu () and t0 = Util.Clock.now_ns () in
  while Util.Clock.now_ns () - t0 < 50_000_000 do
    Util.Backoff.once b
  done;
  let wall = float_of_int (Util.Clock.now_ns () - t0) *. 1e-9 in
  let used = cpu () -. cpu0 in
  if used >= wall /. 2. then
    Alcotest.failf "%.1f ms CPU over a %.1f ms wait" (used *. 1e3) (wall *. 1e3)

let test_backoff_exponential () =
  Util.Backoff.exponential ~attempt:1;
  Util.Backoff.exponential ~attempt:5

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0. 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let arr = Array.of_list xs in
      let p50 = Util.Stats.percentile arr 50. in
      let p90 = Util.Stats.percentile arr 90. in
      let p99 = Util.Stats.percentile arr 99. in
      p50 <= p90 && p90 <= p99)

let qcheck_percentile_member =
  QCheck.Test.make ~name:"nearest-rank percentile is a sample" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0. 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let arr = Array.of_list xs in
      let p = Util.Stats.percentile arr 90. in
      List.exists (fun x -> x = p) xs)

let qcheck_vec_model =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let v = Util.Vec.create ~dummy:0 () in
      List.iter (Util.Vec.push v) xs;
      Array.to_list (Util.Vec.to_array v) = xs
      && Util.Vec.length v = List.length xs)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "backoff",
        [
          Alcotest.test_case "first use from two domains" `Quick
            test_backoff_first_use_race;
          Alcotest.test_case "spins before sleeping" `Quick
            test_backoff_spins_before_sleeping;
          Alcotest.test_case "long wait sleeps" `Quick
            test_backoff_long_wait_sleeps;
          Alcotest.test_case "exponential" `Quick test_backoff_exponential;
        ] );
      ( "sprng",
        [
          Alcotest.test_case "deterministic" `Quick test_sprng_deterministic;
          Alcotest.test_case "golden seeds" `Quick test_sprng_golden_seeds;
          Alcotest.test_case "state padded to its own line" `Quick test_sprng_state_padded;
          Alcotest.test_case "int range" `Quick test_sprng_int_range;
          Alcotest.test_case "float range" `Quick test_sprng_float_range;
          Alcotest.test_case "spread" `Quick test_sprng_spread;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "theta=0 uniform" `Quick test_zipf_uniform_theta0;
          Alcotest.test_case "theta=0.9 skewed" `Quick test_zipf_skew;
          Alcotest.test_case "in range for all thetas" `Quick test_zipf_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile unsorted" `Quick
            test_stats_percentile_unsorted;
          Alcotest.test_case "percentiles_in_place" `Quick
            test_stats_percentiles_in_place;
          Alcotest.test_case "max" `Quick test_stats_max;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          q qcheck_percentile_monotone;
          q qcheck_percentile_member;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "clear reuses storage" `Quick test_vec_clear_reuse;
          Alcotest.test_case "iter orders" `Quick test_vec_iter_orders;
          Alcotest.test_case "exists" `Quick test_vec_exists;
          Alcotest.test_case "get bounds" `Quick test_vec_get_bounds;
          q qcheck_vec_model;
        ] );
      ( "id_gen",
        [
          Alcotest.test_case "unique single-thread" `Quick
            test_id_gen_unique_single;
          Alcotest.test_case "unique across domains" `Quick
            test_id_gen_unique_concurrent;
        ] );
      ( "tid",
        [
          Alcotest.test_case "register idempotent" `Quick
            test_tid_register_idempotent;
          Alcotest.test_case "distinct across domains" `Quick
            test_tid_distinct_across_domains;
          Alcotest.test_case "high water" `Quick test_tid_high_water;
        ] );
      ( "once",
        [
          Alcotest.test_case "single domain" `Quick test_once_single;
          Alcotest.test_case "concurrent force" `Quick
            test_once_concurrent_force;
        ] );
    ]
