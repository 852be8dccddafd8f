(* Tests for the telemetry subsystem: histogram bucket math, padded
   counters, the abort-reason-sums-equal-aborts invariant under a
   contended multi-domain run, and well-formedness of the exported Chrome
   trace JSON. *)

module Obs = Twoplsf_obs

let check = Alcotest.check

(* ---- Histogram bucket math ---- *)

let test_bucket_boundaries () =
  let b = Obs.Histogram.bucket_of_value in
  check Alcotest.int "v=0" 0 (b 0);
  check Alcotest.int "v=-5" 0 (b (-5));
  check Alcotest.int "v=min_int" 0 (b min_int);
  check Alcotest.int "v=1" 1 (b 1);
  check Alcotest.int "v=2" 2 (b 2);
  check Alcotest.int "v=3" 2 (b 3);
  check Alcotest.int "v=4" 3 (b 4);
  check Alcotest.int "v=7" 3 (b 7);
  check Alcotest.int "v=8" 4 (b 8);
  (* bucket b holds [2^(b-1), 2^b): both edges of each power of two *)
  for k = 1 to 45 do
    check Alcotest.int
      (Printf.sprintf "v=2^%d" k)
      (k + 1)
      (b (1 lsl k));
    check Alcotest.int
      (Printf.sprintf "v=2^%d - 1" k)
      k
      (b ((1 lsl k) - 1))
  done

let test_bucket_overflow () =
  let last = Obs.Histogram.num_buckets - 1 in
  check Alcotest.int "max_int" last (Obs.Histogram.bucket_of_value max_int);
  check Alcotest.int "2^60" last (Obs.Histogram.bucket_of_value (1 lsl 60));
  (* largest non-overflow value *)
  check Alcotest.int "2^46 - 1" (last - 1)
    (Obs.Histogram.bucket_of_value ((1 lsl 46) - 1))

let test_bucket_lower_bound_roundtrip () =
  for b = 0 to Obs.Histogram.num_buckets - 1 do
    let lo = Obs.Histogram.bucket_lower_bound b in
    check Alcotest.int
      (Printf.sprintf "bucket_of(lower_bound %d)" b)
      b
      (Obs.Histogram.bucket_of_value lo)
  done;
  (* lower bounds strictly increase from bucket 1 on *)
  for b = 1 to Obs.Histogram.num_buckets - 2 do
    if
      Obs.Histogram.bucket_lower_bound (b + 1)
      <= Obs.Histogram.bucket_lower_bound b
    then Alcotest.failf "lower bounds not increasing at %d" b
  done

let test_histogram_record_percentile () =
  let h = Obs.Histogram.create () in
  (* 90 small samples (bucket 1) and 10 large ones (bucket of 1024 = 11) *)
  for _ = 1 to 90 do
    Obs.Histogram.record h ~tid:0 1
  done;
  for _ = 1 to 10 do
    Obs.Histogram.record h ~tid:1 1024
  done;
  check Alcotest.int "total" 100 (Obs.Histogram.total h);
  let snap = Obs.Histogram.snapshot h in
  check Alcotest.int "bucket 1" 90 snap.(1);
  check Alcotest.int "bucket 11" 10 snap.(11);
  (* upper bound = largest integer in the bucket: 2^b - 1 *)
  check Alcotest.int "p50 upper" 1 (Obs.Histogram.percentile_upper h 50.);
  check Alcotest.int "p99 upper" 2047 (Obs.Histogram.percentile_upper h 99.);
  Obs.Histogram.reset h;
  check Alcotest.int "total after reset" 0 (Obs.Histogram.total h)

(* ---- Percentile edge cases ---- *)

let test_percentile_edges () =
  let h = Obs.Histogram.create () in
  (* empty histogram: every percentile is 0 *)
  check Alcotest.int "empty p50" 0 (Obs.Histogram.percentile_upper h 50.);
  check Alcotest.int "empty p99.9" 0 (Obs.Histogram.percentile_upper h 99.9);
  check Alcotest.int "empty buckets p50" 0
    (Obs.Histogram.percentile_upper_of_buckets
       (Array.make Obs.Histogram.num_buckets 0)
       50.);
  (* every sample in one bucket: every percentile is that bucket's upper
     bound, including the extreme p's *)
  for _ = 1 to 10 do
    Obs.Histogram.record h ~tid:0 5
  done;
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "single-bucket p%g" p)
        7
        (Obs.Histogram.percentile_upper h p))
    [ 0.1; 50.; 99.; 99.9; 100. ];
  (* a tail sample in the overflow bucket saturates high percentiles to
     max_int while p50 stays in the low bucket *)
  Obs.Histogram.reset h;
  Obs.Histogram.record h ~tid:0 1;
  Obs.Histogram.record h ~tid:1 max_int;
  check Alcotest.int "p50 stays low" 1 (Obs.Histogram.percentile_upper h 50.);
  check Alcotest.int "p99 saturates" max_int
    (Obs.Histogram.percentile_upper h 99.);
  (* all samples in the saturating top bucket: even p1 is max_int *)
  Obs.Histogram.reset h;
  for _ = 1 to 3 do
    Obs.Histogram.record h ~tid:0 (1 lsl 60)
  done;
  check Alcotest.int "saturated top bucket p1" max_int
    (Obs.Histogram.percentile_upper h 1.)

(* ---- Snapshot-delta arithmetic ---- *)

let counts = Alcotest.(list (pair string int))

let test_snapshot_arith () =
  let cur = [ ("a", 5); ("b", 2); ("c", 0) ] in
  let prev = [ ("a", 3); ("b", 4) ] in
  check counts "diff clamps at 0 and counts missing-in-prev from 0"
    [ ("a", 2); ("b", 0); ("c", 0) ]
    (Obs.Snapshot.diff_counts cur prev);
  check counts "diff against empty prev" cur (Obs.Snapshot.diff_counts cur []);
  check counts "add: [] is left identity" cur
    (Obs.Snapshot.add_counts [] cur);
  check counts "add: [] is right identity" cur
    (Obs.Snapshot.add_counts cur []);
  check counts "add sums positionally"
    [ ("a", 8); ("b", 6) ]
    (Obs.Snapshot.add_counts [ ("a", 5); ("b", 2) ] [ ("a", 3); ("b", 4) ]);
  check
    Alcotest.(array int)
    "bucket diff clamps" [| 3; 0; 2 |]
    (Obs.Snapshot.diff_buckets [| 5; 1; 2 |] [| 2; 3; 0 |])

(* ---- Padded counters ---- *)

let test_padded_counters () =
  let p = Obs.Padded.create () in
  Obs.Padded.incr p ~tid:0;
  Obs.Padded.incr p ~tid:0;
  Obs.Padded.add p ~tid:3 40;
  check Alcotest.int "get tid 0" 2 (Obs.Padded.get p ~tid:0);
  check Alcotest.int "get tid 3" 40 (Obs.Padded.get p ~tid:3);
  check Alcotest.int "sum" 42 (Obs.Padded.sum p);
  Obs.Padded.reset p;
  check Alcotest.int "sum after reset" 0 (Obs.Padded.sum p)

(* ---- Contended multi-domain run: reasons sum to aborts () ---- *)

module S = Twoplsf.Stm

let contended_run_on (module X : Stm_intf.STM) =
  let tvs = Array.init 8 (fun _ -> X.tvar 0) in
  let _ =
    Harness.Exec.run_each ~threads:4 (fun i ->
        for _ = 1 to 400 do
          X.atomic (fun tx ->
              if i land 1 = 0 then
                for j = 0 to 7 do
                  X.write tx tvs.(j) (X.read tx tvs.(j) + 1)
                done
              else
                for j = 7 downto 0 do
                  X.write tx tvs.(j) (X.read tx tvs.(j) + 1)
                done)
        done)
  in
  Array.fold_left (fun acc tv -> acc + X.atomic (fun tx -> X.read tx tv)) 0 tvs

let contended_run () = contended_run_on (module S)

(* Every STM that runs through [Baselines.Txn_loop]. *)
let loop_users =
  List.map Baselines.Registry.find
    [
      "TL2";
      "TinySTM";
      "TicToc-STM";
      "OREC-Z";
      "TLRW";
      "2PL-RW";
      "2PL-RW-Dist";
      "2PL-WaitDie";
      "2PL-WoundWait";
    ]

let test_abort_reasons_sum (module X : Stm_intf.STM) () =
  Obs.Telemetry.enable ();
  X.reset_stats ();
  let total = contended_run_on (module X) in
  (* 4 domains x 400 txns x 8 increments, plus the 8 verification reads *)
  check Alcotest.int "counter total" (4 * 400 * 8) total;
  let sc =
    match Obs.Scope.find X.name with
    | Some sc -> sc
    | None -> Alcotest.failf "no %s scope" X.name
  in
  let reasons = Obs.Scope.abort_counts sc in
  check Alcotest.int "reason count" Obs.Events.num_abort_reasons
    (List.length reasons);
  let sum = List.fold_left (fun a (_, n) -> a + n) 0 reasons in
  check Alcotest.int "reasons sum to aborts ()" (X.aborts ()) sum;
  check Alcotest.int "aborts_total agrees" (X.aborts ())
    (Obs.Scope.aborts_total sc)

(* ---- Latency-phase accounting ---- *)

let busy_wait_ns ns =
  let t0 = Obs.Telemetry.now_ns () in
  while Obs.Telemetry.now_ns () - t0 < ns do
    Domain.cpu_relax ()
  done

(* Deterministic single-thread lifecycle: one aborted attempt, then a
   committing attempt with a timed commit step.  Checks each phase got at
   least its busy-wait and that the partition tiles the transaction. *)
let test_phase_accounting_unit () =
  Obs.Telemetry.enable ();
  let sc = Obs.Scope.create "phase-unit" in
  let tid = 0 in
  let txn_t0 = Obs.Telemetry.now_ns () in
  busy_wait_ns 400_000;
  Obs.Scope.txn_abort sc ~tid ~att_t0_ns:txn_t0 Obs.Events.Write_lock_conflict;
  let att2 = Obs.Telemetry.now_ns () in
  busy_wait_ns 300_000;
  let c0 = Obs.Telemetry.now_ns () in
  busy_wait_ns 100_000;
  Obs.Scope.txn_commit sc ~tid ~txn_t0_ns:txn_t0 ~att_t0_ns:att2
    ~commit_t0_ns:c0 ();
  let phases = Obs.Scope.phase_counts sc in
  let get ph =
    match List.assoc_opt (Obs.Phase.label ph) phases with
    | Some ns -> ns
    | None -> Alcotest.failf "missing phase %s" (Obs.Phase.label ph)
  in
  if get Obs.Phase.Wasted_retry < 400_000 then
    Alcotest.failf "wasted-retry %d < aborted attempt" (get Obs.Phase.Wasted_retry);
  if get Obs.Phase.Commit < 100_000 then
    Alcotest.failf "commit phase %d too small" (get Obs.Phase.Commit);
  if get Obs.Phase.Body < 600_000 then
    Alcotest.failf "body phase %d too small" (get Obs.Phase.Body);
  let total = Obs.Scope.txn_total_ns sc in
  if total < 800_000 then Alcotest.failf "txn_total_ns %d too small" total;
  let part =
    List.fold_left (fun acc ph -> acc + get ph) 0 Obs.Phase.partition
  in
  let ratio = float_of_int part /. float_of_int total in
  if ratio < 0.95 || ratio > 1.05 then
    Alcotest.failf "partition covers %.3f of txn wall-clock" ratio;
  (* the abort also counted its reason *)
  check Alcotest.int "one abort" 1 (Obs.Scope.aborts_total sc)

(* The gap between an aborted attempt and its retry: a conflictor wait
   inside it keeps its phase, and [retry_start] charges the rest of the
   gap — here 300 us of retry bookkeeping — to Backoff, so the partition
   still tiles the transaction. *)
let test_phase_retry_gap () =
  Obs.Telemetry.enable ();
  let sc = Obs.Scope.create "phase-gap" in
  let tid = 0 in
  let txn_t0 = Obs.Telemetry.now_ns () in
  busy_wait_ns 100_000;
  Obs.Scope.txn_abort sc ~tid ~att_t0_ns:txn_t0 Obs.Events.Write_lock_conflict;
  busy_wait_ns 200_000;
  let w0 = Obs.Telemetry.now_ns () in
  busy_wait_ns 200_000;
  Obs.Scope.conflictor_wait sc ~tid ~t0_ns:w0;
  busy_wait_ns 100_000;
  let att2 = Obs.Scope.retry_start sc ~tid in
  busy_wait_ns 100_000;
  Obs.Scope.txn_commit sc ~tid ~txn_t0_ns:txn_t0 ~att_t0_ns:att2 ();
  let phases = Obs.Scope.phase_counts sc in
  let get ph = List.assoc (Obs.Phase.label ph) phases in
  let conflictor = get Obs.Phase.Conflictor_wait
  and backoff = get Obs.Phase.Backoff in
  if conflictor < 200_000 then
    Alcotest.failf "conflictor-wait %d < its 200 us" conflictor;
  if backoff < 300_000 then
    Alcotest.failf "backoff %d < the 300 us of unwaited gap" backoff;
  let total = Obs.Scope.txn_total_ns sc in
  let part =
    List.fold_left (fun acc ph -> acc + get ph) 0 Obs.Phase.partition
  in
  let ratio = float_of_int part /. float_of_int total in
  if ratio < 0.95 || ratio > 1.05 then
    Alcotest.failf "partition covers %.3f of txn wall-clock" ratio

(* End-to-end: the instrumented 2PLSF run's partition must tile its
   transactions' wall-clock within 5% (the ISSUE acceptance bound). *)
let test_phase_partition_contended () =
  Obs.Telemetry.enable ();
  S.reset_stats ();
  ignore (contended_run ());
  let sc =
    match Obs.Scope.find "2PLSF" with
    | Some sc -> sc
    | None -> Alcotest.fail "no 2PLSF scope"
  in
  let phases = Obs.Scope.phase_counts sc in
  let total = Obs.Scope.txn_total_ns sc in
  if total <= 0 then Alcotest.fail "no transaction time recorded";
  let part =
    List.fold_left
      (fun acc ph ->
        acc
        + Option.value ~default:0
            (List.assoc_opt (Obs.Phase.label ph) phases))
      0 Obs.Phase.partition
  in
  let ratio = float_of_int part /. float_of_int total in
  if ratio < 0.95 || ratio > 1.05 then
    Alcotest.failf "phase partition covers %.3f of txn wall-clock" ratio

(* ---- Named gauge providers ---- *)

let test_gauge_providers () =
  let clean () =
    List.iter
      (fun name -> Obs.Monitor.remove_gauges ~name)
      [ "g1"; "g2"; "boom" ]
  in
  clean ();
  Fun.protect ~finally:clean (fun () ->
      Obs.Monitor.add_gauges ~name:"g1" (fun () -> [ ("x", 1) ]);
      Obs.Monitor.add_gauges ~name:"g2" (fun () -> [ ("y", 2) ]);
      Obs.Monitor.add_gauges ~name:"boom" (fun () -> failwith "boom");
      let vs = Obs.Monitor.gauge_values () in
      check (Alcotest.option Alcotest.int) "g1 visible" (Some 1)
        (List.assoc_opt "x" vs);
      check (Alcotest.option Alcotest.int) "g2 visible" (Some 2)
        (List.assoc_opt "y" vs);
      (* a raising provider is skipped, not fatal *)
      Obs.Monitor.add_gauges ~name:"g1" (fun () -> [ ("x", 7) ]);
      let vs = Obs.Monitor.gauge_values () in
      check (Alcotest.option Alcotest.int) "replace by name" (Some 7)
        (List.assoc_opt "x" vs);
      check Alcotest.int "no duplicate from replaced provider" 1
        (List.length (List.filter (fun (k, _) -> k = "x") vs));
      Obs.Monitor.remove_gauges ~name:"g2";
      check (Alcotest.option Alcotest.int) "removed provider gone" None
        (List.assoc_opt "y" (Obs.Monitor.gauge_values ())))

(* ---- OpenMetrics exporter ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_exporter_render () =
  Obs.Telemetry.enable ();
  S.reset_stats ();
  ignore (contended_run ());
  let body = Obs.Exporter.render () in
  List.iter
    (fun needle ->
      if not (contains body needle) then
        Alcotest.failf "render missing %S" needle)
    [
      "# TYPE twoplsf_txns counter";
      "twoplsf_txns_total{scope=\"2PLSF\"}";
      "twoplsf_aborts_total{scope=\"2PLSF\",reason=\"write-lock-conflict\"}";
      "# TYPE twoplsf_lock_wait_ns histogram";
      "twoplsf_lock_wait_ns_bucket{scope=\"2PLSF\",le=\"+Inf\"}";
      "twoplsf_lock_wait_ns_count{scope=\"2PLSF\"}";
      "twoplsf_phase_ns_total{scope=\"2PLSF\",phase=\"body\"}";
      "twoplsf_txn_latency_ns_bucket";
    ];
  let eof = "# EOF\n" in
  let tail =
    String.sub body (String.length body - String.length eof)
      (String.length eof)
  in
  check Alcotest.string "terminated by # EOF" eof tail

let read_all fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents b

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      read_all sock)

let test_exporter_http () =
  Obs.Telemetry.enable ();
  let port = Obs.Exporter.start ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Obs.Exporter.stop ())
    (fun () ->
      check Alcotest.bool "running" true (Obs.Exporter.running ());
      let resp = http_get ~port "/metrics" in
      if not (contains resp "HTTP/1.1 200") then
        Alcotest.failf "bad status: %s" (String.sub resp 0 (Stdlib.min 40 (String.length resp)));
      if not (contains resp "twoplsf_txns_total") then
        Alcotest.fail "payload missing counters";
      if not (contains resp "# EOF") then Alcotest.fail "payload missing # EOF";
      let nf = http_get ~port "/nope" in
      if not (contains nf "404") then Alcotest.fail "expected 404");
  check Alcotest.bool "stopped" false (Obs.Exporter.running ())

let test_exporter_extras () =
  Obs.Exporter.register_extra ~name:"t1" (fun b ->
      Buffer.add_string b "# TYPE extra_one counter\nextra_one 7\n");
  (* replace-by-name, not append *)
  Obs.Exporter.register_extra ~name:"t1" (fun b ->
      Buffer.add_string b "# TYPE extra_one counter\nextra_one 8\n");
  (* a provider that raises is skipped, never kills the scrape *)
  Obs.Exporter.register_extra ~name:"t2" (fun _ -> failwith "boom");
  Fun.protect
    ~finally:(fun () ->
      Obs.Exporter.unregister_extra ~name:"t1";
      Obs.Exporter.unregister_extra ~name:"t2")
    (fun () ->
      let body = Obs.Exporter.render () in
      if not (contains body "extra_one 8") then
        Alcotest.fail "extra provider missing from render";
      if contains body "extra_one 7" then
        Alcotest.fail "replaced provider still rendered");
  let body = Obs.Exporter.render () in
  if contains body "extra_one" then
    Alcotest.fail "unregistered provider still rendered"

(* The PR-9 fd-leak fix: a failed bind (port already taken) must close
   the listener socket so an immediate retry on a free port works. *)
let test_exporter_bind_failure_no_leak () =
  let blocker = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close blocker with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind blocker (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen blocker 1;
      let taken =
        match Unix.getsockname blocker with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      (match Obs.Exporter.start ~port:taken () with
      | _ -> Alcotest.fail "bind on a taken port succeeded"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      check Alcotest.bool "not running after failed bind" false
        (Obs.Exporter.running ());
      (* the real regression check: repeated failed starts must not
         exhaust fds, and a good port must still come up *)
      for _ = 1 to 64 do
        match Obs.Exporter.start ~port:taken () with
        | _ -> Alcotest.fail "bind on a taken port succeeded"
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      done;
      let port = Obs.Exporter.start ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Obs.Exporter.stop ())
        (fun () ->
          if port = 0 then Alcotest.fail "no ephemeral port";
          check Alcotest.bool "running after recovery" true
            (Obs.Exporter.running ())))

(* ---- Chrome trace JSON ---- *)

(* A hand-rolled mini JSON parser (no JSON library in the build
   environment): just enough for the exporter's output. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              for _ = 1 to 4 do
                advance ()
              done;
              Buffer.add_char b '?'
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> J_num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elements [])
        end
    | '"' -> J_str (parse_string ())
    | 't' -> literal "true" (J_bool true)
    | 'f' -> literal "false" (J_bool false)
    | 'n' -> literal "null" J_null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj k =
  match obj with
  | J_obj kvs -> List.assoc_opt k kvs
  | _ -> None

let num_field obj k =
  match field obj k with
  | Some (J_num f) -> f
  | _ -> Alcotest.failf "missing numeric field %s" k

let str_field obj k =
  match field obj k with
  | Some (J_str s) -> s
  | _ -> Alcotest.failf "missing string field %s" k

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Every pair of "X" spans on one thread must be disjoint or nested — a
   lock-wait span sits inside its attempt's commit/abort span, and
   successive attempts never overlap.  Sweep with a stack of open span
   ends. *)
let check_spans_nest spans =
  let eps = 1e-6 in
  let spans =
    List.sort
      (fun (s1, e1, _) (s2, e2, _) ->
        match compare s1 s2 with 0 -> compare e2 e1 | c -> c)
      spans
  in
  let stack = ref [] in
  List.iter
    (fun (s, e, name) ->
      while
        match !stack with
        | (top, _) :: rest when top <= s +. eps ->
            stack := rest;
            true
        | _ -> false
      do
        ()
      done;
      (match !stack with
      | (top, top_name) :: _ when e > top +. eps ->
          Alcotest.failf
            "spans overlap without nesting: %s [%f, %f] vs %s ending %f" name s
            e top_name top
      | _ -> ());
      stack := (e, name) :: !stack)
    spans

let test_trace_export () =
  Obs.Telemetry.enable_tracing ();
  Obs.Tracer.reset ();
  S.reset_stats ();
  ignore (contended_run ());
  let path = Filename.temp_file "twoplsf_trace" ".json" in
  Obs.Tracer.export ~path;
  let doc = parse_json (read_file path) in
  Sys.remove path;
  let events =
    match field doc "traceEvents" with
    | Some (J_arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  if events = [] then Alcotest.fail "empty trace";
  let tids = Hashtbl.create 8 in
  let spans_by_tid : (int, (float * float * string) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let commit_spans = ref 0 in
  List.iter
    (fun ev ->
      let name = str_field ev "name" in
      let ph = str_field ev "ph" in
      let tid = int_of_float (num_field ev "tid") in
      ignore (num_field ev "pid");
      let ts = num_field ev "ts" in
      Hashtbl.replace tids tid ();
      match ph with
      | "X" ->
          let dur = num_field ev "dur" in
          if dur < 0. then Alcotest.failf "negative dur on %s" name;
          if name = "2PLSF:commit" then incr commit_spans;
          let r =
            match Hashtbl.find_opt spans_by_tid tid with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add spans_by_tid tid r;
                r
          in
          r := (ts, ts +. dur, name) :: !r
      | "i" -> ()
      | _ -> Alcotest.failf "unexpected phase %s" ph)
    events;
  if Hashtbl.length tids < 2 then
    Alcotest.failf "expected events from >= 2 threads, got %d"
      (Hashtbl.length tids);
  if !commit_spans = 0 then Alcotest.fail "no 2PLSF:commit span";
  Hashtbl.iter (fun _ spans -> check_spans_nest !spans) spans_by_tid

(* ---- Conflict cartography: Space-Saving sketch ---- *)

module C = Obs.Conflict

(* Fewer distinct keys than K: estimates are exact and err is 0. *)
let test_sketch_exact_under_k () =
  let c = C.create ~k:8 "sketch-exact" in
  for i = 0 to 5 do
    C.record_wait c ~tid:0 ~lock:i ~write:(i land 1 = 1) ~ns:(100 * (i + 1))
  done;
  C.record_wait c ~tid:0 ~lock:3 ~write:false ~ns:1000;
  let hots = C.top c in
  check Alcotest.int "6 keys resident" 6 (List.length hots);
  let h = List.hd hots in
  check Alcotest.int "lock 3 ranks first" 3 h.C.lock;
  check Alcotest.int "exact weight" 1400 h.C.weight_ns;
  check Alcotest.int "zero err below K keys" 0 h.C.err_ns;
  check Alcotest.int "hits" 2 h.C.hits;
  check Alcotest.int "read split" 1000 h.C.read_wait_ns;
  check Alcotest.int "write split" 400 h.C.write_wait_ns;
  check Alcotest.int "total = sum of waits"
    (100 + 200 + 300 + 400 + 500 + 600 + 1000)
    (C.total_weight_ns c);
  (* negative lock ids are dropped, not misfiled *)
  C.record_wait c ~tid:0 ~lock:(-1) ~write:false ~ns:999;
  check Alcotest.int "lock -1 ignored"
    (100 + 200 + 300 + 400 + 500 + 600 + 1000)
    (C.total_weight_ns c)

(* Adversarial interleaving: a churn of fresh tail keys between every
   heavy-hitter touch forces constant eviction.  The Space-Saving
   guarantees must survive: heavy hitters (true weight > total/K) stay
   resident, estimates never underestimate, the overestimate is within
   the entry's err, and err stays within total/K. *)
let test_sketch_adversarial () =
  let k = 4 in
  let c = C.create ~k "sketch-adv" in
  let true_w = Hashtbl.create 64 in
  let feed lock ns =
    Hashtbl.replace true_w lock
      (ns + Option.value ~default:0 (Hashtbl.find_opt true_w lock));
    C.record_wait c ~tid:0 ~lock ~write:false ~ns
  in
  for round = 0 to 49 do
    feed 0 1000;
    feed 1 800;
    for j = 0 to 5 do
      feed (100 + (round * 6) + j) 10
    done
  done;
  let true_total = Hashtbl.fold (fun _ v a -> v + a) true_w 0 in
  let total = C.total_weight_ns c in
  check Alcotest.int "total weight is exact despite evictions" true_total
    total;
  let hots = C.top c in
  if List.length hots > k then
    Alcotest.failf "sketch holds %d > K=%d entries" (List.length hots) k;
  List.iter
    (fun lock ->
      match List.find_opt (fun h -> h.C.lock = lock) hots with
      | None -> Alcotest.failf "heavy hitter %d evicted" lock
      | Some h ->
          let tw = Hashtbl.find true_w lock in
          if h.C.weight_ns < tw then
            Alcotest.failf "lock %d: estimate %d underestimates true %d" lock
              h.C.weight_ns tw;
          if h.C.weight_ns - tw > h.C.err_ns then
            Alcotest.failf "lock %d: overestimate %d exceeds err %d" lock
              (h.C.weight_ns - tw) h.C.err_ns)
    [ 0; 1 ];
  (match List.map (fun h -> h.C.lock) hots with
  | 0 :: 1 :: _ | 1 :: 0 :: _ ->
      (* defensive: 0 outweighs 1, so really 0 then 1 *)
      check Alcotest.int "heaviest first" 0 (List.hd hots).C.lock
  | order ->
      Alcotest.failf "heavy hitters not ranked first: %s"
        (String.concat "," (List.map string_of_int order)));
  List.iter
    (fun h ->
      if h.C.err_ns > total / k then
        Alcotest.failf "lock %d: err %d > total/K = %d" h.C.lock h.C.err_ns
          (total / k))
    hots

(* Per-thread sketches merge by summing weights, errs and splits. *)
let test_sketch_merge () =
  let c = C.create ~k:4 "sketch-merge" in
  C.record_wait c ~tid:0 ~lock:7 ~write:false ~ns:100;
  C.record_wait c ~tid:1 ~lock:7 ~write:true ~ns:200;
  C.record_wait c ~tid:2 ~lock:7 ~write:false ~ns:300;
  C.record_wait c ~tid:1 ~lock:9 ~write:false ~ns:50;
  (match C.top c with
  | [ h7; h9 ] ->
      check Alcotest.int "merged heaviest" 7 h7.C.lock;
      check Alcotest.int "merged weight sums threads" 600 h7.C.weight_ns;
      check Alcotest.int "merged hits" 3 h7.C.hits;
      check Alcotest.int "merged read split" 400 h7.C.read_wait_ns;
      check Alcotest.int "merged write split" 200 h7.C.write_wait_ns;
      check Alcotest.int "second key" 9 h9.C.lock;
      check Alcotest.int "second weight" 50 h9.C.weight_ns
  | hots -> Alcotest.failf "expected 2 merged keys, got %d" (List.length hots));
  check Alcotest.int "total_wait sums threads" 650 (C.total_wait_ns c);
  C.reset c;
  check Alcotest.int "reset clears totals" 0 (C.total_weight_ns c);
  check Alcotest.bool "reset clears sketches" true (C.top c = [])

(* ---- Conflict cartography: provenance matrix ---- *)

let test_matrix_unit () =
  let c = C.create "matrix-unit" in
  C.edge c ~victim:1 ~aborter:2 ~lock:5 ~wasted_ns:100
    Obs.Events.Write_lock_conflict;
  C.edge c ~victim:1 ~aborter:2 ~lock:5 ~wasted_ns:100
    Obs.Events.Write_lock_conflict;
  C.edge c ~victim:2 ~aborter:1 ~lock:5 ~wasted_ns:50
    Obs.Events.Read_lock_conflict;
  (* unknown aborter and unattributed lock: matrix-only edge *)
  C.edge c ~victim:3 ~aborter:(-1) ~lock:(-1) ~wasted_ns:10
    Obs.Events.Read_validation;
  check Alcotest.int "victim 1 row" 2 (C.row_total c ~victim:1);
  check Alcotest.int "victim 2 row" 1 (C.row_total c ~victim:2);
  check Alcotest.int "victim 3 row" 1 (C.row_total c ~victim:3);
  check Alcotest.int "edges total" 4 (C.edges_total c);
  let m = C.matrix c in
  check Alcotest.int "cell (1,2)" 2 m.(1).(2);
  check Alcotest.int "cell (2,1)" 1 m.(2).(1);
  check Alcotest.int "unknown column" 1 m.(3).(Array.length m.(3) - 1);
  check counts "edges by reason keep taxonomy order"
    (List.map
       (fun r ->
         ( Obs.Events.abort_reason_label r,
           match r with
           | Obs.Events.Write_lock_conflict -> 2
           | Obs.Events.Read_lock_conflict | Obs.Events.Read_validation -> 1
           | _ -> 0 ))
       Obs.Events.all_abort_reasons)
    (C.edges_by_reason c);
  (* known-aborter asymmetry: |2 - 1| / 3 *)
  let asym = C.asymmetry c in
  if Float.abs (asym -. (1. /. 3.)) > 1e-9 then
    Alcotest.failf "asymmetry %.4f, expected 1/3" asym;
  (* the lock sketch absorbed the pinned aborts *)
  (match C.top c with
  | [ h ] ->
      check Alcotest.int "pinned lock" 5 h.C.lock;
      check Alcotest.int "pinned aborts" 3 h.C.aborts;
      check Alcotest.int "wasted ns charged" 250 h.C.weight_ns
  | hots -> Alcotest.failf "expected 1 pinned lock, got %d" (List.length hots))

(* End-to-end provenance invariant (the ISSUE acceptance criterion):
   after a contended 2PLSF run with the cartography on, each victim's
   matrix row total equals that thread's abort count in the scope's
   taxonomy — edges are recorded exactly where aborts are counted. *)
let test_matrix_matches_taxonomy () =
  Obs.Telemetry.enable ();
  C.enable ();
  Fun.protect ~finally:C.disable (fun () ->
      S.reset_stats ();
      let sc =
        match Obs.Scope.find "2PLSF" with
        | Some sc -> sc
        | None -> Alcotest.fail "no 2PLSF scope"
      in
      let c = Obs.Scope.conflict sc in
      C.reset c;
      ignore (contended_run ());
      check Alcotest.int "edges total equals scope aborts"
        (Obs.Scope.aborts_total sc) (C.edges_total c);
      for tid = 0 to Util.Tid.max_threads - 1 do
        let row = C.row_total c ~victim:tid in
        let ab = Obs.Scope.aborts_of_tid sc ~tid in
        if row <> ab then
          Alcotest.failf "tid %d: %d provenance edges, %d taxonomy aborts"
            tid row ab
      done;
      if S.aborts () > 0 then begin
        if C.top c = [] then
          Alcotest.fail "aborts occurred but no lock was attributed";
        if C.total_weight_ns c <= 0 then
          Alcotest.fail "aborts occurred but no weight attributed"
      end)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "overflow bucket" `Quick test_bucket_overflow;
          Alcotest.test_case "lower-bound roundtrip" `Quick
            test_bucket_lower_bound_roundtrip;
          Alcotest.test_case "record + percentile" `Quick
            test_histogram_record_percentile;
          Alcotest.test_case "percentile edge cases" `Quick
            test_percentile_edges;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "diff/add arithmetic" `Quick test_snapshot_arith ]
      );
      ("padded", [ Alcotest.test_case "counters" `Quick test_padded_counters ]);
      ( "taxonomy",
        [
          Alcotest.test_case "reasons sum to aborts" `Quick
            (test_abort_reasons_sum (module S));
        ]
        @ List.map
            (fun (module X : Stm_intf.STM) ->
              Alcotest.test_case
                ("reasons sum to aborts, " ^ X.name)
                `Quick
                (test_abort_reasons_sum (module X)))
            loop_users );
      ( "phases",
        [
          Alcotest.test_case "deterministic lifecycle" `Quick
            test_phase_accounting_unit;
          Alcotest.test_case "contended partition tiles wall-clock" `Quick
            test_phase_partition_contended;
          Alcotest.test_case "retry gap charged to backoff" `Quick
            test_phase_retry_gap;
        ] );
      ( "gauges",
        [ Alcotest.test_case "named providers" `Quick test_gauge_providers ] );
      ( "exporter",
        [
          Alcotest.test_case "OpenMetrics render" `Quick test_exporter_render;
          Alcotest.test_case "HTTP scrape" `Quick test_exporter_http;
          Alcotest.test_case "extra providers" `Quick test_exporter_extras;
          Alcotest.test_case "failed bind leaks nothing" `Quick
            test_exporter_bind_failure_no_leak;
        ] );
      ( "trace",
        [ Alcotest.test_case "chrome JSON export" `Quick test_trace_export ] );
      ( "conflict-sketch",
        [
          Alcotest.test_case "exact below K" `Quick test_sketch_exact_under_k;
          Alcotest.test_case "adversarial heavy hitters" `Quick
            test_sketch_adversarial;
          Alcotest.test_case "per-thread merge" `Quick test_sketch_merge;
        ] );
      ( "conflict-matrix",
        [
          Alcotest.test_case "unit accounting" `Quick test_matrix_unit;
          Alcotest.test_case "rows match abort taxonomy" `Quick
            test_matrix_matches_taxonomy;
        ] );
    ]
