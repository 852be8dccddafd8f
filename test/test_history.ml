(* The serializability checker itself, then real concurrent histories:
   record per-thread (op, result) logs against a shared transactional set
   under several STMs (including the non-opaque TicToc) and verify a
   serial witness exists. *)

module H = History
module M = H.Int_set_model
module C = H.Make (H.Int_set_model)

let check = Alcotest.check

let ev op result = { C.op; result }

(* ---- checker unit tests on hand-written histories ---- *)

let test_empty () = check Alcotest.bool "empty" true (C.serializable [||])

let test_single_thread_valid () =
  let h = [| [ ev (M.Add 1) true; ev (M.Mem 1) true; ev (M.Remove 1) true ] |] in
  check Alcotest.bool "valid" true (C.serializable h)

let test_single_thread_invalid () =
  let h = [| [ ev (M.Mem 1) true ] |] in
  check Alcotest.bool "mem of empty can't be true" false (C.serializable h)

let test_two_threads_requires_interleaving () =
  (* T0: add 1 -> true.  T1: mem 1 -> true.  Only the order T0;T1 works. *)
  let h = [| [ ev (M.Add 1) true ]; [ ev (M.Mem 1) true ] |] in
  check Alcotest.bool "interleaving found" true (C.serializable h)

let test_cyclic_dependency_rejected () =
  (* T0: mem 1 -> false, then add 2.  T1: add 1, then mem 2 -> true.
     mem 2 = true forces T0's add 2 first; but T0's mem 1 = false forces it
     before T1's add 1... consistent?  Order: T0.mem1(false), T0.add2,
     T1.add1, T1.mem2(true): works.  Make it truly cyclic instead:
     T0: mem 1 -> true, then add 2.  T1: mem 2 -> true, then add 1.
     mem 1 = true needs T1's add 1 first; mem 2 = true needs T0's add 2
     first; but each add comes after its thread's mem: cycle. *)
  let h =
    [|
      [ ev (M.Mem 1) true; ev (M.Add 2) true ];
      [ ev (M.Mem 2) true; ev (M.Add 1) true ];
    |]
  in
  check Alcotest.bool "cyclic rejected" false (C.serializable h)

let test_duplicate_add_results () =
  let h =
    [| [ ev (M.Add 5) true; ev (M.Add 5) false; ev (M.Remove 5) true ] |]
  in
  check Alcotest.bool "dup add" true (C.serializable h);
  let bad = [| [ ev (M.Add 5) true; ev (M.Add 5) true ] |] in
  check Alcotest.bool "second add can't be true" false (C.serializable bad)

let test_lost_update_detected () =
  (* Two threads both successfully remove the same key that was added once:
     no serial order explains two true removes. *)
  let h =
    [|
      [ ev (M.Add 9) true ];
      [ ev (M.Remove 9) true ];
      [ ev (M.Remove 9) true ];
    |]
  in
  check Alcotest.bool "double remove rejected" false (C.serializable h)

(* qcheck: any round-robin split of a genuinely serial execution is
   serializable. *)
let qcheck_serial_split =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 1 18)
        (map2
           (fun c k ->
             match c mod 3 with
             | 0 -> M.Add k
             | 1 -> M.Remove k
             | _ -> M.Mem k)
           (int_range 0 2) (int_range 0 4)))
  in
  QCheck.Test.make ~name:"serial execution split across threads is accepted"
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map M.op_to_string ops))
       gen_ops)
    (fun ops ->
      (* Replay sequentially to get ground-truth results... *)
      let _, events =
        List.fold_left
          (fun (st, acc) op ->
            let st', r = M.apply st op in
            (st', ev op r :: acc))
          (M.init, []) ops
      in
      let events = List.rev events in
      (* ...then deal the serial history round-robin onto 3 threads
         (preserving relative order within each thread). *)
      let threads = [| []; []; [] |] in
      List.iteri
        (fun i e -> threads.(i mod 3) <- e :: threads.(i mod 3))
        events;
      let threads = Array.map List.rev threads in
      C.serializable threads)

(* ---- real histories from shared structures ---- *)

let record_history (module S : Stm_intf.STM) =
  let module Hm =
    Structures.Hash_map.Make
      (S)
      (struct
        type t = unit
      end)
  in
  let set = Hm.create ~buckets:8 () in
  let logs =
    Harness.Exec.run_each ~threads:3 (fun i ->
        let rng = Util.Sprng.create (400 + i) in
        let log = ref [] in
        for _ = 1 to 14 do
          let k = Util.Sprng.int rng 4 (* tiny key space: real conflicts *) in
          let event =
            match Util.Sprng.int rng 3 with
            | 0 -> ev (M.Add k) (Hm.put set k ())
            | 1 -> ev (M.Remove k) (Hm.remove set k)
            | _ -> ev (M.Mem k) (Hm.get set k <> None)
          in
          log := event :: !log
        done;
        List.rev !log)
  in
  Array.of_list logs

let history_case (module S : Stm_intf.STM) =
  Alcotest.test_case (S.name ^ " history serializable") `Quick (fun () ->
      for _ = 1 to 5 do
        let h = record_history (module S) in
        if not (C.serializable h) then begin
          Array.iteri
            (fun t evs ->
              Printf.eprintf "T%d: %s\n" t
                (String.concat "; "
                   (List.map
                      (fun { C.op; result } ->
                        Printf.sprintf "%s=%b" (M.op_to_string op) result)
                      evs)))
            h;
          Alcotest.fail (S.name ^ ": no serial witness for history")
        end
      done)

let history_stms : (module Stm_intf.STM) list =
  [
    (module Twoplsf.Stm);
    (module Twoplsf.Stm_wb);
    (module Baselines.Tl2);
    (module Baselines.Tinystm);
    (module Baselines.Onefile);
    (module Baselines.Wound_wait);
    (module Baselines.Tictoc_stm);
  ]

let () =
  ignore (Util.Tid.register ());
  Alcotest.run "history"
    [
      ( "checker",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single thread valid" `Quick
            test_single_thread_valid;
          Alcotest.test_case "single thread invalid" `Quick
            test_single_thread_invalid;
          Alcotest.test_case "needs interleaving" `Quick
            test_two_threads_requires_interleaving;
          Alcotest.test_case "cyclic rejected" `Quick
            test_cyclic_dependency_rejected;
          Alcotest.test_case "duplicate adds" `Quick test_duplicate_add_results;
          Alcotest.test_case "lost update rejected" `Quick
            test_lost_update_detected;
          QCheck_alcotest.to_alcotest qcheck_serial_split;
        ] );
      ("recorded histories", List.map history_case history_stms);
    ]
