(* The exploration workload (DESIGN.md §14.2): a conserved-sum account
   transfer over any registry STM whose blocking and retry paths all
   carry chaos sync points.  Deterministic by construction: worker
   registration is serialized so slot i always claims the i-th tid, op
   streams are stateless functions of (wseed, slot), and every other
   scheduling decision belongs to [Sched]. *)

module Chaos = Twoplsf_chaos.Chaos

exception Induced_abort

type failure =
  | Worker_exn of string
  | Leaked_locks of int
  | Conservation of { expected : int; actual : int }
  | Serializability of Checker.violation
  | Starvation of Checker.violation
  | No_progress of string

let failure_class = function
  | Worker_exn _ -> "worker-exn"
  | Leaked_locks _ -> "leaked-locks"
  | Conservation _ -> "conservation"
  | Serializability _ -> "serializability"
  | Starvation _ -> "starvation"
  | No_progress _ -> "no-progress"

let failure_to_string = function
  | Worker_exn e -> "worker exception: " ^ e
  | Leaked_locks n -> Printf.sprintf "%d leaked locks after quiescence" n
  | Conservation { expected; actual } ->
      Printf.sprintf "conservation violated: sum %d, expected %d" actual
        expected
  | Serializability v | Starvation v -> Checker.explain v
  | No_progress s -> "no progress: " ^ s

type outcome = {
  failure : failure option;
  info : Sched.run_info;
  history_hash : int;
  commits : int;
  aborts : int;
  txns : Checker.txn list;
  finals : int array;
}

(* STMs whose every potentially-unbounded loop (lock waits, validation
   waits, conflict-retry) passes a sync point.  Running an
   uninstrumented STM under the scheduler could park a lock holder
   forever while the baton holder spins in a site-free retry loop. *)
let supported =
  [
    "2PLSF";
    "2PLSF-WB";
    "2PLSF-WBD";
    "TL2";
    "TinySTM";
    "TicToc-STM";
    "2PL-WoundWait";
  ]

let twoplsf_family = [ "2PLSF"; "2PLSF-WB"; "2PLSF-WBD" ]

(* TicToc is deliberately absent from [Registry.all] (it is serializable
   for update transactions but skips commit validation for read-only
   ones — the non-opacity test_opacity.ml exercises). *)
let resolve = function
  | "TicToc-STM" -> (module Baselines.Tictoc_stm : Stm_intf.STM)
  | name -> Baselines.Registry.find name

let run ?(strategy = Sched.Round_robin) ?(max_steps = 200_000) ?chaos
    (p : Trace.scenario) =
  if not (List.mem p.stm supported) then
    invalid_arg
      (Printf.sprintf
         "Scenario.run: %s is not schedulable (uninstrumented blocking paths)"
         p.stm);
  if p.threads < 1 || p.accounts < 2 || p.txns_per_thread < 0 then
    invalid_arg "Scenario.run: bad workload parameters";
  let (module S : Stm_intf.STM) =
    Baselines.Registry.chaos_wrap (resolve p.stm)
  in
  let bug = Option.map Baselines.Tinystm.bug_of_string p.bug in
  let saved_policy = Stm_intf.current_policy () in
  Stm_intf.install_policy Stm_intf.default_policy;
  Baselines.Tinystm.set_bug bug;
  let cfg =
    match chaos with Some c -> c | None -> { Chaos.quiet with seed = p.wseed }
  in
  Chaos.enable ~config:cfg ();
  Sched.setup ~max_steps ~threads:p.threads strategy;
  S.reset_stats ();
  let module T = Harness.Transfer.Make (S) in
  let table = T.create ~n:p.accounts ~initial:p.init_balance in
  let accounts = table.T.accounts in
  let logs : Checker.txn list array = Array.make p.threads [] in
  let errors : exn option array = Array.make p.threads None in
  let turn = Atomic.make 0 in
  let body slot =
    let rng = Util.Sprng.create (Util.Sprng.hash4 p.wseed slot 0x5EED 0) in
    for k = 1 to p.txns_per_thread do
      (* Draw op parameters outside the transaction: a retried body must
         not consume more of the stream than a clean one. *)
      let a = Util.Sprng.int rng p.accounts in
      let b0 = Util.Sprng.int rng (p.accounts - 1) in
      let b = if b0 >= a then b0 + 1 else b0 in
      let amt = 1 + Util.Sprng.int rng 7 in
      let audit = p.audit_every > 0 && k mod p.audit_every = 0 in
      let induce =
        (not audit) && p.abort_every > 0 && k mod p.abort_every = 0
      in
      let start = Sched.step () in
      if audit then begin
        let va, vb =
          S.atomic ~read_only:true (fun tx ->
              (S.read tx accounts.(a), S.read tx accounts.(b)))
        in
        logs.(slot) <-
          {
            Checker.slot;
            start;
            order = Sched.step ();
            reads = [ (a, va); (b, vb) ];
            writes = [];
            restarts = S.last_restarts ();
          }
          :: logs.(slot)
      end
      else if induce then (
        (* A user abort after the first write: exercises rollback with a
           dirty value in place.  The transaction logically never
           happened, so nothing is recorded. *)
        match
          S.atomic (fun tx ->
              let va = S.read tx accounts.(a) in
              S.write tx accounts.(a) (va - amt);
              raise Induced_abort)
        with
        | () -> ()
        | exception Induced_abort -> ())
      else begin
        let va, vb =
          S.atomic (fun tx ->
              let va = S.read tx accounts.(a) in
              let vb = S.read tx accounts.(b) in
              S.write tx accounts.(a) (va - amt);
              S.write tx accounts.(b) (vb + amt);
              (va, vb))
        in
        logs.(slot) <-
          {
            Checker.slot;
            start;
            order = Sched.step ();
            reads = [ (a, va); (b, vb) ];
            writes = [ (a, va - amt); (b, vb + amt) ];
            restarts = S.last_restarts ();
          }
          :: logs.(slot)
      end
    done
  in
  let doms =
    List.init p.threads (fun i ->
        Domain.spawn (fun () ->
            (* Serialize registration so slot i always claims the i-th
               free tid: schedules stay keyed by slot, portable across
               processes. *)
            while Atomic.get turn <> i do
              Domain.cpu_relax ()
            done;
            ignore (Util.Tid.register ());
            Atomic.set turn (i + 1);
            Sched.register ~slot:i;
            Fun.protect
              ~finally:(fun () ->
                Sched.unregister ();
                Util.Tid.release ())
              (fun () -> try body i with e -> errors.(i) <- Some e)))
  in
  List.iter Domain.join doms;
  let info = Sched.finish () in
  Chaos.disable ();
  Baselines.Tinystm.set_bug None;
  Stm_intf.install_policy saved_policy;
  let finals =
    Array.map
      (fun tv -> S.atomic ~read_only:true (fun tx -> S.read tx tv))
      accounts
  in
  let txns =
    Array.fold_left (fun acc l -> List.rev_append l acc) [] logs
    |> Checker.commit_order
  in
  let commits = List.length txns in
  let aborts = List.fold_left (fun a t -> a + t.Checker.restarts) 0 txns in
  let history_hash =
    let h = ref (Util.Sprng.hash4 0x2b15f p.threads p.accounts p.wseed) in
    Array.iter (fun (s, c) -> h := Util.Sprng.hash4 !h s c 1) info.decisions;
    List.iter
      (fun (t : Checker.txn) ->
        h := Util.Sprng.hash4 !h t.Checker.slot t.order t.restarts;
        List.iter (fun (loc, v) -> h := Util.Sprng.hash4 !h loc v 2) t.reads;
        List.iter (fun (loc, v) -> h := Util.Sprng.hash4 !h loc v 3) t.writes)
      txns;
    Array.iter (fun v -> h := Util.Sprng.hash4 !h v 4 5) finals;
    !h
  in
  let failure =
    match Array.to_list errors |> List.find_map Fun.id with
    | Some e -> Some (Worker_exn (Printexc.to_string e))
    | None -> (
        let { Harness.Transfer.total = actual; expected; leaked } =
          T.audit table
        in
        if leaked > 0 then Some (Leaked_locks leaked)
        else if actual <> expected then Some (Conservation { expected; actual })
        else if info.budget_exhausted then
          (* Progress under an adversarial schedule is exactly what
             only the 2PLSF family claims (the paper's motivation): a
             PCT schedule that starves wound-wait's wounder — the
             victim restarts instantly, re-grabs its lock and
             re-blocks before the older transaction runs — or locks
             encounter-time STMs into mutual-abort cycles is expected
             behaviour there, not a bug.  The history logged after
             exhaustion ran unscheduled, so no further checks apply
             either way. *)
          if List.mem p.stm twoplsf_family then
            Some
              (No_progress
                 (Printf.sprintf
                    "step budget (%d) exhausted with %d/%d commits" max_steps
                    commits (p.threads * p.txns_per_thread)))
          else None
        else
          let init = Array.make p.accounts p.init_balance in
          (* TicToc's read-only transactions skip commit validation by
             design (non-opacity): an audit observing a mixed snapshot
             is expected behaviour there, not a violation.  Update
             transactions stay fully checked. *)
          let checked =
            if String.equal p.stm "TicToc-STM" then
              List.filter (fun (t : Checker.txn) -> t.writes <> []) txns
            else txns
          in
          match Checker.check_serializable ~init checked with
          | Some v -> Some (Serializability v)
          | None -> (
              let starve =
                if
                  Option.is_none chaos && p.threads > 1
                  && List.mem p.stm twoplsf_family
                then
                  Checker.check_restart_bound ~bound:(p.threads - 1) txns
                else None
              in
              match starve with
              | Some v -> Some (Starvation v)
              | None ->
                  (* Commit-gap is a liveness bound too: only the
                     starvation-free family owes it. *)
                  if commits = 0 || not (List.mem p.stm twoplsf_family)
                  then None
                  else
                    Checker.check_commit_gap
                      ~bound:(max 2000 (200 * p.threads))
                      ~total:info.steps txns
                    |> Option.map (fun v ->
                           No_progress (Checker.explain v))))
  in
  { failure; info; history_hash; commits; aborts; txns; finals }
