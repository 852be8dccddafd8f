let name = "2PLSF"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission

exception Restart
(* The OCaml stand-in for the paper's longjmp back to beginTxn. *)

type 'a tvar = { id : int; mutable v : 'a; mutable stamp : int }
(* [stamp] identifies the transaction attempt that last undo-logged this
   tvar; written only under the tvar's write lock. *)

type wentry = W : { tv : 'a tvar; old : 'a } -> wentry

type tx = {
  tbl : Rwl_sf.t; (* the lock table, resolved once per thread *)
  ctx : Rwl_sf.ctx; (* also holds the read set *)
  wset : int Util.Vec.t; (* write-locked lock indices *)
  undo : wentry Util.Vec.t;
  mutable stamp : int; (* unique per attempt: serial * max_threads + tid *)
  mutable serial : int;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable irrevocable : bool;
  mutable escalated : bool;
      (* the overload fallback upgraded this transaction mid-flight; the
         zero mutex is held and must be released on every exit path *)
  ov : Cm.state; (* overload-protection state (deadline, strikes) *)
  mutable abort_reason : Obs.Events.abort_reason;
      (* why the in-flight attempt raised Restart; telemetry only *)
}

(* ---- global state ---- *)

let requested_num_locks = ref 65536
let configured = ref false

let obs = Obs.Scope.create "2PLSF"

let table =
  Util.Once.create (fun () ->
      configured := true;
      let t = Rwl_sf.create ~num_locks:!requested_num_locks () in
      Rwl_sf.set_obs t obs;
      t)

let configure ?(num_locks = 65536) () =
  if !configured then failwith "Twoplsf.Stm.configure: lock table already built";
  requested_num_locks := num_locks

let lock_table () = Util.Once.get table

module Stm_stats = Stm_intf.Stats

let stats = Stm_stats.create ()

let restart_hist_buckets = 128

let restart_hist =
  Array.init restart_hist_buckets (fun _ -> Atomic.make 0)

let dummy_wentry = W { tv = { id = -1; v = (); stamp = -1 }; old = () }

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        tbl = Util.Once.get table;
        ctx = Rwl_sf.make_ctx ~tid;
        wset = Util.Vec.create ~dummy:(-1) ();
        undo = Util.Vec.create ~dummy:dummy_wentry ();
        stamp = tid;
        serial = 0;
        depth = 0;
        restarts = 0;
        finished_restarts = 0;
        irrevocable = false;
        escalated = false;
        ov = Cm.make_state ();
        abort_reason = Obs.Events.User_restart;
      })

let get_tx () = Domain.DLS.get tx_key

(* ---- tvars ---- *)

let tvar v = { id = Util.Id_gen.next (); v; stamp = -1 }

let read tx tv =
  let t = tx.tbl in
  if Rwl_sf.try_or_wait_read_lock t tx.ctx (Rwl_sf.lock_index t tv.id) then
    tv.v
  else begin
    tx.abort_reason <-
      (if tx.ctx.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Read_lock_conflict);
    raise Restart
  end

let write tx tv nv =
  let t = tx.tbl in
  let w = Rwl_sf.lock_index t tv.id in
  let held = Rwl_sf.holds_write t tx.ctx w in
  if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
    if not held then Util.Vec.push tx.wset w;
    if tv.stamp <> tx.stamp then begin
      Util.Vec.push tx.undo (W { tv; old = tv.v });
      tv.stamp <- tx.stamp
    end;
    tv.v <- nv
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.deadline_hit then Obs.Events.Deadline
       else if tx.ctx.preempted then Obs.Events.Priority_preemption
       else Obs.Events.Write_lock_conflict);
    raise Restart
  end

(* ---- transaction lifecycle ---- *)

let begin_attempt tx =
  Util.Vec.clear tx.wset;
  Util.Vec.clear tx.undo;
  tx.serial <- tx.serial + 1;
  tx.stamp <- (tx.serial * Util.Tid.max_threads) + tx.ctx.tid;
  tx.ctx.deadline_hit <- false;
  tx.abort_reason <- Obs.Events.User_restart

let[@inline] release_locks tx =
  for i = 0 to Util.Vec.length tx.wset - 1 do
    Rwl_sf.write_unlock tx.tbl tx.ctx (Util.Vec.get tx.wset i)
  done;
  Rwl_sf.read_unlock_all tx.tbl tx.ctx

(* Bucket 0 is derived as commits - sum(others) at read time so the common
   no-restart commit path touches no shared counter. *)
let record_restart_count n =
  if n > 0 then begin
    let b = if n >= restart_hist_buckets then restart_hist_buckets - 1 else n in
    Atomic.incr restart_hist.(b)
  end

let commit tx =
  release_locks tx;
  Rwl_sf.clear_announcement tx.tbl tx.ctx;
  Stm_stats.commit stats ~tid:tx.ctx.tid;
  tx.finished_restarts <- tx.restarts;
  record_restart_count tx.restarts

let rollback tx =
  (* Undo newest-first *before* releasing any write lock. *)
  for i = Util.Vec.length tx.undo - 1 downto 0 do
    let (W { tv; old }) = Util.Vec.get tx.undo i in
    tv.v <- old
  done;
  (* Chaos: delay-only site — an exception here would corrupt the
     rollback; [Chaos.point] never raises by contract. *)
  if !Chaos.on then Chaos.point Chaos.Mid_rollback;
  release_locks tx

let irrevocable_priority = 1

(* De-escalate an overload-escalated transaction on any exit path: the
   zero mutex is held from the moment of escalation until the escalated
   attempt commits or escapes with an exception. *)
let finish_escalation t tx =
  if tx.escalated then begin
    tx.escalated <- false;
    tx.irrevocable <- false;
    Rwl_sf.zero_mutex_unlock t
  end

(* An attempt and, through its tail calls, the retries.  Top level, not a
   closure inside [run], so that a transaction allocates no closure. *)
let rec attempt tx f ~telemetry ~txn_t0 att_t0 =
  let t = tx.tbl in
  begin_attempt tx;
  tx.depth <- 1;
  match f tx with
  | v ->
      tx.depth <- 0;
      if !Chaos.on then Chaos.point Chaos.Pre_commit;
      let commit_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
      commit tx;
      finish_escalation t tx;
      if telemetry then
        Obs.Scope.txn_commit obs ~tid:tx.ctx.tid ~txn_t0_ns:txn_t0
          ~att_t0_ns:att_t0 ~commit_t0_ns:commit_t0 ();
      v
  | exception Restart ->
      tx.depth <- 0;
      rollback tx;
      Stm_stats.abort stats ~tid:tx.ctx.tid;
      if telemetry then begin
        (* Provenance: the conflictor and lock the failed acquisition
           recorded in the ctx; explicit user restarts have neither. *)
        let aborter, lock =
          match tx.abort_reason with
          | Obs.Events.User_restart -> (-1, -1)
          | _ -> (tx.ctx.o_tid, tx.ctx.o_lock)
        in
        Obs.Scope.txn_abort obs ~aborter ~lock ~tid:tx.ctx.tid
          ~att_t0_ns:att_t0 tx.abort_reason
      end;
      tx.restarts <- tx.restarts + 1;
      if tx.escalated || tx.irrevocable then begin
        (* Already on the serial slow path (or §2.8 irrevocable): only a
           chaos-injected spurious failure can abort us; retry
           unconditionally — priority 1 wins every real conflict. *)
        Rwl_sf.wait_for_conflictor t tx.ctx;
        attempt tx f ~telemetry ~txn_t0
          (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid else 0)
      end
      else begin
        match
          Cm.after_abort ~stm:name ~tid:tx.ctx.tid ~restarts:tx.restarts
            ~st:tx.ov
            ~native_wait:(fun () -> Rwl_sf.wait_for_conflictor t tx.ctx)
              (* Locks are already released; cleanup drops the priority
                 announcement too so no other thread keeps deferring to
                 a timestamp that will never commit. *)
            ~cleanup:(fun () -> Rwl_sf.clear_announcement t tx.ctx)
            ~reasons:(fun () ->
              if telemetry then Obs.Scope.abort_counts obs else [])
        with
        | Cm.Retry ->
            tx.ctx.deadline_ns <- tx.ov.Cm.deadline;
            attempt tx f ~telemetry ~txn_t0
              (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
               else 0)
        | Cm.Escalate ->
            (* Serial-irrevocable fallback (DESIGN.md §11): take the
               zero mutex and the reserved priority, so the next attempt
               cannot lose a conflict and commits. *)
            Rwl_sf.clear_announcement t tx.ctx;
            Rwl_sf.zero_mutex_lock t;
            Rwl_sf.announce_priority t tx.ctx irrevocable_priority;
            tx.escalated <- true;
            tx.irrevocable <- true;
            tx.ctx.deadline_ns <- 0;
            if telemetry then
              Obs.Scope.event obs ~tid:tx.ctx.tid
                Obs.Events.Irrevocable_fallback;
            attempt tx f ~telemetry ~txn_t0
              (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
               else 0)
      end
  | exception e ->
      tx.depth <- 0;
      rollback tx;
      Rwl_sf.clear_announcement t tx.ctx;
      finish_escalation t tx;
      raise e

let run tx f =
  tx.restarts <- 0;
  (* Irrevocable transactions (§2.8) are exempt from overload protection:
     they hold the zero mutex and must commit. *)
  tx.ctx.deadline_ns <- (if tx.irrevocable then 0 else Cm.begin_txn tx.ov);
  let telemetry = !Obs.Telemetry.on in
  let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  attempt tx f ~telemetry ~txn_t0 txn_t0

let atomic ?read_only f =
  ignore read_only;
  (* 2PLSF reads are pessimistic; read-only transactions take the same
     path (no commit-time validation exists to skip). *)
  let tx = get_tx () in
  if tx.depth > 0 then f tx
  else if !Admission.on then begin
    Admission.enter ();
    match run tx f with
    | v ->
        Admission.leave ();
        v
    | exception e ->
        Admission.leave ();
        raise e
  end
  else run tx f

let atomic_irrevocable_ro f =
  let tx = get_tx () in
  if tx.depth > 0 then invalid_arg "atomic_irrevocable_ro: already in a transaction";
  let t = tx.tbl in
  Rwl_sf.announce_priority t tx.ctx irrevocable_priority;
  tx.irrevocable <- true;
  if !Obs.Telemetry.on then
    Obs.Scope.event obs ~tid:tx.ctx.tid Obs.Events.Irrevocable_upgrade;
  let finish () = tx.irrevocable <- false in
  match atomic f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let atomic_irrevocable f =
  let tx = get_tx () in
  if tx.depth > 0 then invalid_arg "atomic_irrevocable: already in a transaction";
  let t = tx.tbl in
  Rwl_sf.zero_mutex_lock t;
  Rwl_sf.announce_priority t tx.ctx irrevocable_priority;
  tx.irrevocable <- true;
  if !Obs.Telemetry.on then
    Obs.Scope.event obs ~tid:tx.ctx.tid Obs.Events.Irrevocable_upgrade;
  let finish () =
    tx.irrevocable <- false;
    Rwl_sf.zero_mutex_unlock t
  in
  match atomic f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ---- statistics ---- *)

let commits () = Stm_stats.commits stats
let aborts () = Stm_stats.aborts stats
let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

let reset_stats () =
  Stm_stats.reset stats;
  Rwl_sf.reset_clock_increments (Util.Once.get table);
  Obs.Scope.reset obs;
  Array.iter (fun c -> Atomic.set c 0) restart_hist

let last_restarts () = (get_tx ()).finished_restarts

let leaked_locks () = if !configured then Rwl_sf.leaked (Util.Once.get table) else 0

let restart_histogram () =
  let h = Array.map Atomic.get restart_hist in
  let restarted = Array.fold_left ( + ) 0 h in
  h.(0) <- Stdlib.max 0 (commits () - restarted);
  h
