(* Tests for the benchmark harness itself: execution, workload mixes,
   latency collection, a smoke pass of the set/map drivers for every
   structure kind, the shared transfer kernel and its audit, and the
   JSON outputs (the hand-rolled JSON round-trip, the BENCH artifact
   writer's schema, its commit id and the telemetry.json dump). *)

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

(* ---- JSON outputs ---- *)

module J = Harness.Json
module A = Harness.Bench_artifact

let rec json_eq a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Num x, J.Num y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
  | J.Str x, J.Str y -> x = y
  | J.Arr x, J.Arr y ->
      List.length x = List.length y && List.for_all2 json_eq x y
  | J.Obj x, J.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2)
           x y
  | _ -> false

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("s", J.Str "a \"quoted\"\nstring");
        ("i", J.Num 42.);
        ("f", J.Num 3.125);
        ("neg", J.Num (-7.));
        ("b", J.Bool true);
        ("n", J.Null);
        ("a", J.Arr [ J.Num 1.; J.Str "x"; J.Obj []; J.Arr [] ]);
      ]
  in
  let s = J.to_string doc in
  if not (json_eq doc (J.parse s)) then
    Alcotest.failf "round-trip mismatch: %s" s;
  (* integral floats print without a fractional part *)
  if not (String.length s > 0 && J.to_string (J.Num 42.) = "42") then
    Alcotest.failf "integral float printed as %s" (J.to_string (J.Num 42.));
  match J.parse "{\"x\": [1, 2,]}" with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted trailing comma"

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match J.parse input with
      | exception J.Parse_error msg -> (
          match String.split_on_char ' ' msg |> List.rev with
          | off :: "at" :: _ :: _ when int_of_string_opt off <> None -> ()
          | _ -> Alcotest.failf "%S: error without an offset: %s" input msg)
      | v -> Alcotest.failf "%S accepted as %s" input (J.to_string v))
    [
      "";
      "{";
      "{\"a\" 1}";
      "{\"a\": 1,}";
      "[1 2]";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"\\u12G4\"";
      "\"\\u12\"";
      "tru";
      "nul";
      "-";
      "1.2.3";
      "{} {}";
      "@";
    ]

(* The writer escapes control characters as \u00XX; the parser must
   decode them back rather than drop them. *)
let test_json_control_chars () =
  let s = "tab\there\r\001\031 \"q\" \\ /" in
  let printed = J.to_string (J.Str s) in
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control character in %S" printed)
    printed;
  check Alcotest.string "round-trip" s
    (match J.parse printed with J.Str x -> x | _ -> Alcotest.fail "not a string");
  check Alcotest.string "\\u escapes decode to UTF-8" "A\xc3\xa9\xe2\x82\xac"
    (match J.parse "\"\\u0041\\u00e9\\u20AC\"" with
    | J.Str x -> x
    | _ -> Alcotest.fail "not a string");
  check Alcotest.string "lone surrogate is U+FFFD" "\xef\xbf\xbd"
    (match J.parse "\"\\ud800\"" with
    | J.Str x -> x
    | _ -> Alcotest.fail "not a string")

let test_json_numbers () =
  let parsed s =
    match J.parse s with J.Num f -> f | _ -> Alcotest.failf "%s: not a number" s
  in
  List.iter
    (fun (s, f) -> check (Alcotest.float 1e-12) s f (parsed s))
    [ ("0", 0.); ("-0.5", -0.5); ("1e3", 1000.); ("2E-2", 0.02);
      ("1.5e+2", 150.) ];
  List.iter
    (fun (f, s) -> check Alcotest.string s s (J.to_string (J.Num f)))
    [ (-7., "-7"); (0.125, "0.125"); (1234567.891, "1.23457e+06");
      (1e15, "1e+15"); (Float.nan, "null"); (Float.infinity, "null");
      (Float.neg_infinity, "null") ];
  (* every printed number parses back *)
  List.iter
    (fun f ->
      let printed = J.to_string (J.Arr [ J.Num f ]) in
      match J.parse printed with
      | J.Arr [ J.Num g ] when Float.abs (g -. f) <= 1e-5 *. Float.abs f -> ()
      | J.Arr [ J.Null ] when not (Float.is_finite f) -> ()
      | _ -> Alcotest.failf "%s does not parse back" printed)
    [ 3.; 1e20; -2.5e-7; 123456.75; Float.nan ]

let test_json_accessors () =
  let d =
    J.parse
      "{\"s\": \"x\", \"n\": 2.9, \"a\": [1], \"o\": {\"k\": null}, \
       \"dup\": 1, \"dup\": 2}"
  in
  let opt_s = Alcotest.(option string)
  and opt_i = Alcotest.(option int)
  and opt_f = Alcotest.(option (float 0.)) in
  check opt_s "str_field" (Some "x") (J.str_field d "s");
  check opt_s "str_field on a number" None (J.str_field d "n");
  check opt_s "missing key" None (J.str_field d "nope");
  check opt_f "num_field" (Some 2.9) (J.num_field d "n");
  check opt_f "num_field on a string" None (J.num_field d "s");
  check opt_i "int_field truncates" (Some 2) (J.int_field d "n");
  check opt_i "first duplicate wins" (Some 1) (J.int_field d "dup");
  check Alcotest.(option int) "arr_field" (Some 1)
    (Option.map List.length (J.arr_field d "a"));
  check Alcotest.bool "arr_field on an object" true (J.arr_field d "o" = None);
  check Alcotest.bool "nested null" true
    (Option.bind (J.mem d "o") (fun o -> J.mem o "k") = Some J.Null);
  check Alcotest.bool "mem on a non-object" true (J.mem (J.Arr []) "s" = None)

let test_json_of_counts () =
  let counts = [ ("write-lock-conflict", 3); ("read-lock-conflict", 0);
                 ("starved", 12) ] in
  let o = J.of_counts counts in
  check Alcotest.string "rendering"
    "{\"write-lock-conflict\":3,\"read-lock-conflict\":0,\"starved\":12}"
    (J.to_string o);
  check
    Alcotest.(list (pair string (option int)))
    "fields in order"
    (List.map (fun (k, n) -> (k, Some n)) counts)
    (List.map (fun (k, _) -> (k, J.int_field o k)) counts)

let test_artifact_write () =
  A.reset ();
  let telemetry =
    {
      Harness.Driver.phases =
        List.map
          (fun ph ->
            ( Twoplsf_obs.Phase.label ph,
              match ph with
              | Twoplsf_obs.Phase.Body -> 700
              | Twoplsf_obs.Phase.Commit -> 300
              | Twoplsf_obs.Phase.Wasted_retry -> 50
              | _ -> 0 ))
          Twoplsf_obs.Phase.all;
      txn_total_ns = 1000;
      p50_ns = 127;
      p99_ns = 511;
      p999_ns = 1023;
    }
  in
  A.record_row ~figure:"Figure T"
    {
      Harness.Driver.stm = "2PLSF";
      structure = "hash";
      mix = "50u";
      threads = 2;
      throughput = 12345.;
      commits = 100;
      aborts = 7;
      clock_ops = 3;
      abort_reasons = [ ("write-lock-conflict", 7) ];
      telemetry;
    };
  A.record_overload ~stm:"2PLSF" ~ops:500 ~starved:0 ~deadline_raises:1
    ~fallbacks:2 ~leaked:0 ~sum_ok:true ~p50_ms:0.5 ~p99_ms:2.0 ~p999_ms:8.0;
  A.record_wal [ ("crash_cycles", 5); ("killed", 4); ("records_replayed", 77) ];
  let path = Filename.temp_file "bench_artifact" ".json" in
  A.write ~path ~flags:"--quick --telemetry";
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      A.reset ())
    (fun () ->
      let d = J.parse_file path in
      check (Alcotest.option Alcotest.int) "schema" (Some A.schema_version)
        (J.int_field d "schema_version");
      check (Alcotest.option Alcotest.string) "flags"
        (Some "--quick --telemetry") (J.str_field d "flags");
      let r =
        match J.arr_field d "rows" with
        | Some [ r ] -> r
        | _ -> Alcotest.fail "expected exactly one row"
      in
      (match J.num_field r "phase_coverage" with
      | Some cov when Float.abs (cov -. 1.0) <= 0.05 -> ()
      | Some cov -> Alcotest.failf "phase_coverage %.3f out of tolerance" cov
      | None -> Alcotest.fail "missing phase_coverage");
      (match J.num_field r "wasted_retry_frac" with
      | Some f when Float.abs (f -. 0.05) <= 1e-9 -> ()
      | Some f -> Alcotest.failf "wasted_retry_frac %.4f, expected 0.05" f
      | None -> Alcotest.fail "missing wasted_retry_frac");
      match J.mem d "wal" with
      | Some w ->
          check (Alcotest.option Alcotest.int) "wal crash_cycles" (Some 5)
            (J.int_field w "crash_cycles")
      | None -> Alcotest.fail "missing wal section")

(* [git pack-refs] (also run by [git gc]) moves loose refs into
   .git/packed-refs; the commit id must still resolve, and a loose ref
   written later wins over its packed line. *)
let test_commit_id_packed_refs () =
  let root = Filename.temp_dir "commit_id" "" in
  let git = Filename.concat root ".git" in
  let write path s = Out_channel.with_open_text path (fun oc -> output_string oc s) in
  let packed = String.make 40 'a' and loose = String.make 40 'b' in
  Sys.mkdir git 0o755;
  write (Filename.concat git "HEAD") "ref: refs/heads/main\n";
  write
    (Filename.concat git "packed-refs")
    (Printf.sprintf
       "# pack-refs with: peeled fully-peeled sorted\n\
        %s refs/heads/other\n%s refs/heads/main\n%s refs/tags/v1\n^%s\n"
       (String.make 40 'c') packed (String.make 40 'd') (String.make 40 'e'));
  let cwd = Sys.getcwd () in
  let heads = Filename.concat git "refs/heads" in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ Filename.concat heads "main"; Filename.concat git "HEAD";
          Filename.concat git "packed-refs" ];
      List.iter
        (fun d -> if Sys.file_exists d then Sys.rmdir d)
        [ heads; Filename.concat git "refs"; git; root ])
    (fun () ->
      Sys.chdir root;
      check Alcotest.string "packed ref" packed (A.commit_id ());
      Sys.mkdir (Filename.concat git "refs") 0o755;
      Sys.mkdir heads 0o755;
      write (Filename.concat heads "main") (loose ^ "\n");
      check Alcotest.string "loose ref wins" loose (A.commit_id ()))

(* A checkout with a detached HEAD stores the hash itself; outside a
   checkout, or when the ref is neither loose nor packed, the id is
   "unknown". *)
let test_commit_id_detached_and_missing () =
  let root = Filename.temp_dir "commit_id" "" in
  let git = Filename.concat root ".git" in
  let head = Filename.concat git "HEAD" in
  let write path s = Out_channel.with_open_text path (fun oc -> output_string oc s) in
  let hash = String.make 40 'f' in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      if Sys.file_exists head then Sys.remove head;
      List.iter (fun d -> if Sys.file_exists d then Sys.rmdir d) [ git; root ])
    (fun () ->
      Sys.chdir root;
      check Alcotest.string "outside a checkout" "unknown" (A.commit_id ());
      Sys.mkdir git 0o755;
      write head (hash ^ "\n");
      check Alcotest.string "detached HEAD" hash (A.commit_id ());
      write head "ref: refs/heads/gone\n";
      check Alcotest.string "dangling ref" "unknown" (A.commit_id ()))

let with_artifact f =
  let path = Filename.temp_file "bench_artifact" ".json" in
  A.write ~path ~flags:"--figure 3";
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      A.reset ())
    (fun () -> f (J.parse_file path))

let test_artifact_empty () =
  A.reset ();
  with_artifact (fun d ->
      List.iter
        (fun key ->
          check Alcotest.(option int) (key ^ " empty") (Some 0)
            (Option.map List.length (J.arr_field d key)))
        [ "rows"; "latency_rows"; "overload" ];
      check Alcotest.bool "conflicts is an array" true
        (J.arr_field d "conflicts" <> None);
      check Alcotest.bool "no wal section" true (J.mem d "wal" = None);
      check Alcotest.bool "commit recorded" true (J.str_field d "commit" <> None);
      check Alcotest.bool "telemetry flag" true
        (match J.mem d "telemetry" with Some (J.Bool _) -> true | _ -> false);
      match J.mem d "host" with
      | Some h ->
          check Alcotest.(option int) "word_size" (Some Sys.word_size)
            (J.int_field h "word_size");
          check Alcotest.(option string) "os" (Some Sys.os_type)
            (J.str_field h "os")
      | None -> Alcotest.fail "missing host")

let test_artifact_record_order () =
  A.reset ();
  let row stm threads =
    {
      Harness.Driver.stm;
      structure = "linked-list";
      mix = "100l";
      threads;
      throughput = 1000. *. float_of_int threads;
      commits = threads;
      aborts = 0;
      clock_ops = 0;
      abort_reasons = [];
      telemetry = Harness.Driver.no_telemetry;
    }
  in
  A.record_row ~figure:"Figure 3" (row "2PLSF" 1);
  A.record_row ~figure:"Figure 3" (row "TL2" 2);
  A.record_row ~figure:"Figure 4" (row "2PLSF" 4);
  A.record_latency ~figure:"Figure 8" ~stm:"2PLSF" ~threads:2 ~throughput:50.
    ~p50_ms:0.25 ~p90_ms:0.5 ~p99_ms:1.5 ~max_ms:9.;
  A.record_latency ~figure:"Figure 8" ~stm:"TL2" ~threads:2 ~throughput:40.
    ~p50_ms:0.5 ~p90_ms:1. ~p99_ms:3. ~max_ms:12.;
  A.record_overload ~stm:"2PLSF" ~ops:500 ~starved:0 ~deadline_raises:1
    ~fallbacks:2 ~leaked:0 ~sum_ok:false ~p50_ms:0.5 ~p99_ms:2.0 ~p999_ms:8.0;
  with_artifact (fun d ->
      let rows key =
        match J.arr_field d key with
        | Some l -> l
        | None -> Alcotest.failf "missing %s" key
      in
      check
        Alcotest.(list (triple (option string) (option string) (option int)))
        "rows in recording order"
        [ (Some "Figure 3", Some "2PLSF", Some 1);
          (Some "Figure 3", Some "TL2", Some 2);
          (Some "Figure 4", Some "2PLSF", Some 4) ]
        (List.map
           (fun r ->
             (J.str_field r "figure", J.str_field r "stm", J.int_field r "threads"))
           (rows "rows"));
      List.iter
        (fun r ->
          check Alcotest.bool "no telemetry fields without telemetry" true
            (J.mem r "phase_coverage" = None && J.mem r "p99_ns" = None))
        (rows "rows");
      check
        Alcotest.(list (pair (option string) (option (float 0.))))
        "latency rows in recording order"
        [ (Some "2PLSF", Some 1.5); (Some "TL2", Some 3.) ]
        (List.map
           (fun r -> (J.str_field r "stm", J.num_field r "p99_ms"))
           (rows "latency_rows"));
      match rows "overload" with
      | [ o ] ->
          check Alcotest.(option int) "fallbacks" (Some 2)
            (J.int_field o "fallbacks");
          check Alcotest.(option int) "deadline_raises" (Some 1)
            (J.int_field o "deadline_raises");
          check Alcotest.bool "sum_ok" true (J.mem o "sum_ok" = Some (J.Bool false))
      | l -> Alcotest.failf "expected one overload entry, got %d" (List.length l))

let test_artifact_wal_replaces () =
  A.reset ();
  A.record_wal [ ("crash_cycles", 5); ("killed", 4) ];
  A.record_wal [ ("records_replayed", 9) ];
  with_artifact (fun d ->
      match J.mem d "wal" with
      | Some (J.Obj kvs) ->
          check
            Alcotest.(list string)
            "only the last recording" [ "records_replayed" ] (List.map fst kvs)
      | _ -> Alcotest.fail "missing wal section");
  with_artifact (fun d ->
      check Alcotest.bool "reset drops the wal section" true (J.mem d "wal" = None))

(* The dump is [Json.to_string] of the scopes: parse it back and compare
   one scope's fields with what the scope itself reports. *)
let test_telemetry_json () =
  let module O = Twoplsf_obs in
  O.Telemetry.enable ();
  let sc = O.Scope.create "telemetry-json" in
  let tid = 0 in
  let t0 = O.Telemetry.now_ns () in
  O.Scope.lock_wait sc ~lock:(-1) ~tid ~write:true ~t0_ns:t0 ~spins:5
    ~acquired:true;
  O.Scope.txn_abort sc ~tid ~att_t0_ns:t0 O.Events.Write_lock_conflict;
  let att = O.Scope.retry_start sc ~tid in
  O.Scope.txn_commit sc ~tid ~txn_t0_ns:t0 ~att_t0_ns:att ();
  let path = Filename.temp_file "telemetry" ".json" in
  Fun.protect
    ~finally:(fun () ->
      O.Telemetry.disable ();
      Sys.remove path)
    (fun () ->
      Harness.Report.write_telemetry_json ~path;
      let scope =
        Option.bind (J.arr_field (J.parse_file path) "scopes")
          (List.find_opt (fun s ->
               J.str_field s "name" = Some "telemetry-json"))
        |> function
        | Some s -> s
        | None -> Alcotest.fail "scope missing from telemetry.json"
      in
      let field o k =
        match J.mem o k with
        | Some v -> v
        | None -> Alcotest.failf "missing field %s" k
      in
      let int = function
        | J.Num f -> int_of_float f
        | _ -> Alcotest.fail "not a number"
      in
      let counts key expected =
        match field scope key with
        | J.Obj kvs ->
            check
              Alcotest.(list (pair string int))
              key expected
              (List.map (fun (k, v) -> (k, int v)) kvs)
        | _ -> Alcotest.failf "%s is not an object" key
      in
      counts "abort_reasons" (O.Scope.cumulative_abort_counts sc);
      counts "phases_ns" (O.Scope.cumulative_phase_counts sc);
      check Alcotest.int "one write-lock-conflict abort" 1
        (List.assoc
           (O.Events.abort_reason_label O.Events.Write_lock_conflict)
           (O.Scope.cumulative_abort_counts sc));
      check Alcotest.int "txn_total_ns"
        (O.Scope.cumulative_txn_total_ns sc)
        (int (field scope "txn_total_ns"));
      let hists = field scope "histograms" in
      List.iter
        (fun (key, buckets) ->
          let h = field hists key in
          check Alcotest.int (key ^ " total") 1 (int (field h "total"));
          check Alcotest.int (key ^ " p99_upper")
            (O.Histogram.percentile_upper_of_buckets buckets 99.)
            (int (field h "p99_upper"));
          match field h "buckets" with
          | J.Arr l ->
              check
                Alcotest.(list int)
                (key ^ " buckets") (Array.to_list buckets) (List.map int l)
          | _ -> Alcotest.failf "%s buckets is not an array" key)
        [
          ("lock_wait_ns", O.Scope.hist_lock_wait sc);
          ("spin_iters", O.Scope.hist_spins sc);
          ("txn_ns", O.Scope.hist_txn sc);
        ])

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
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors name an offset" `Quick
            test_json_parse_errors;
          Alcotest.test_case "control characters round-trip" `Quick
            test_json_control_chars;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "of_counts" `Quick test_json_of_counts;
          Alcotest.test_case "artifact write" `Quick test_artifact_write;
          Alcotest.test_case "commit id from packed-refs" `Quick
            test_commit_id_packed_refs;
          Alcotest.test_case "telemetry.json parses back" `Quick
            test_telemetry_json;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "commit id: detached HEAD, no checkout" `Quick
            test_commit_id_detached_and_missing;
          Alcotest.test_case "empty run" `Quick test_artifact_empty;
          Alcotest.test_case "record order" `Quick test_artifact_record_order;
          Alcotest.test_case "wal recording replaces" `Quick
            test_artifact_wal_replaces;
        ] );
    ]
