module Rwl_sf = Twoplsf.Rwl_sf

let name = "2PL-WaitDie"

module Obs = Twoplsf_obs
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission

exception Restart

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  tbl : Rwl_sf.t; (* the lock table, resolved once per thread *)
  ctx : Rwl_sf.ctx; (* also holds the read set *)
  wlocks : int Util.Vec.t;
  undo : Wset.t;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable escalated : bool; (* overload fallback: Cm.Fallback mutex held *)
  ov : Cm.state;
  mutable abort_reason : Obs.Events.abort_reason;
}

let requested_num_locks = ref 65536
let built = ref false
let obs = Obs.Scope.create name

let table =
  Util.Once.create (fun () ->
      built := true;
      let t = Rwl_sf.create ~num_locks:!requested_num_locks () in
      Rwl_sf.set_obs t obs;
      t)

let configure ?(num_locks = 65536) () =
  if !built then failwith "Wait_or_die.configure: lock table already built";
  requested_num_locks := num_locks

let stats = Stm_intf.Stats.create ()

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        tbl = Util.Once.get table;
        ctx = Rwl_sf.make_ctx ~tid;
        wlocks = Util.Vec.create ~dummy:(-1) ();
        undo = Wset.create ();
        depth = 0;
        restarts = 0;
        finished_restarts = 0;
        escalated = false;
        ov = Cm.make_state ();
        abort_reason = Obs.Events.User_restart;
      })

let get_tx () = Domain.DLS.get tx_key

let read tx (tv : 'a tvar) : 'a =
  let t = tx.tbl in
  if Rwl_sf.try_or_wait_read_lock t tx.ctx (Rwl_sf.lock_index t tv.id) then
    tv.v
  else begin
    tx.abort_reason <-
      (if tx.ctx.Rwl_sf.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Read_lock_conflict);
    raise Restart
  end

let write tx tv nv =
  let t = tx.tbl in
  let w = Rwl_sf.lock_index t tv.id in
  let held = Rwl_sf.holds_write t tx.ctx w in
  if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
    if not held then Util.Vec.push tx.wlocks w;
    Wset.log_old_once tx.undo tv tv.v;
    tv.v <- nv
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.Rwl_sf.deadline_hit then Obs.Events.Deadline
       else if tx.ctx.Rwl_sf.preempted then Obs.Events.Priority_preemption
       else Obs.Events.Write_lock_conflict);
    raise Restart
  end

let release tx =
  Util.Vec.iter (fun w -> Rwl_sf.write_unlock tx.tbl tx.ctx w) tx.wlocks;
  Rwl_sf.read_unlock_all tx.tbl tx.ctx

let rollback tx =
  Wset.rollback tx.undo;
  release tx

(* After dying, wait until no in-flight transaction has a lower timestamp
   — even non-conflicting ones (the wait-or-die behaviour §2.1 contrasts
   with 2PLSF's wait-for-the-specific-conflictor). *)
let wait_for_all_lower t tx =
  let b = Util.Backoff.create () in
  let someone_lower () =
    let hwm = Util.Tid.high_water () in
    let rec go tid =
      if tid >= hwm then false
      else if tid <> tx.ctx.tid then begin
        let ts = Rwl_sf.announced t tid in
        if ts > 0 && ts < tx.ctx.my_ts then true else go (tid + 1)
      end
      else go (tid + 1)
    in
    go 0
  in
  while someone_lower () do
    Util.Backoff.once b
  done

let begin_attempt t tx =
  Util.Vec.clear tx.wlocks;
  Wset.clear tx.undo;
  tx.abort_reason <- Obs.Events.User_restart;
  (* The wait-or-die signature: a timestamp on *every* transaction (kept
     across restarts so progress is guaranteed). *)
  Rwl_sf.take_timestamp t tx.ctx

let finish_escalation tx =
  if tx.escalated then begin
    tx.escalated <- false;
    Cm.Fallback.release ()
  end

let run tx f =
  tx.restarts <- 0;
  tx.ctx.Rwl_sf.deadline_ns <- Cm.begin_txn tx.ov;
  tx.ctx.Rwl_sf.deadline_hit <- false;
  let t = tx.tbl in
  let telemetry = !Obs.Telemetry.on in
  let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  let rec attempt att_t0 =
    begin_attempt t tx;
    tx.depth <- 1;
    match f tx with
    | v ->
        tx.depth <- 0;
        let commit_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
        release tx;
        Rwl_sf.clear_announcement t tx.ctx;
        finish_escalation tx;
        Stm_intf.Stats.commit stats ~tid:tx.ctx.tid;
        tx.finished_restarts <- tx.restarts;
        if telemetry then
          Obs.Scope.txn_commit obs ~tid:tx.ctx.tid ~txn_t0_ns:txn_t0
            ~att_t0_ns:att_t0 ~commit_t0_ns:commit_t0 ();
        v
    | exception Restart ->
        tx.depth <- 0;
        rollback tx;
        tx.ctx.Rwl_sf.deadline_hit <- false;
        Stm_intf.Stats.abort stats ~tid:tx.ctx.tid;
        if telemetry then begin
          (* The shared Rwl_sf slow path pins the conflicting lock and
             owner in the ctx, exactly as for 2PLSF proper. *)
          let aborter, lock =
            match tx.abort_reason with
            | Obs.Events.User_restart -> (-1, -1)
            | _ -> (tx.ctx.Rwl_sf.o_tid, tx.ctx.Rwl_sf.o_lock)
          in
          Obs.Scope.txn_abort obs ~aborter ~lock ~tid:tx.ctx.tid
            ~att_t0_ns:att_t0 tx.abort_reason
        end;
        tx.restarts <- tx.restarts + 1;
        if tx.escalated then begin
          (* Serial slow path: the kept (now oldest-aging) timestamp plus
             the fallback mutex guarantee eventual commit. *)
          wait_for_all_lower t tx;
          attempt
            (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid else 0)
        end
        else begin
          match
            Cm.after_abort ~stm:name ~tid:tx.ctx.tid ~restarts:tx.restarts
              ~st:tx.ov
              ~native_wait:(fun () -> wait_for_all_lower t tx)
                (* Drop the announced timestamp before bailing out so no
                   surviving transaction keeps deferring to a dead one. *)
              ~cleanup:(fun () -> Rwl_sf.clear_announcement t tx.ctx)
              ~reasons:(fun () ->
                if telemetry then Obs.Scope.abort_counts obs else [])
          with
          | Cm.Retry ->
              tx.ctx.Rwl_sf.deadline_ns <- tx.ov.Cm.deadline;
              attempt
                (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
                 else 0)
          | Cm.Escalate ->
              Cm.Fallback.acquire ();
              tx.escalated <- true;
              tx.ctx.Rwl_sf.deadline_ns <- 0;
              if telemetry then
                Obs.Scope.event obs ~tid:tx.ctx.tid
                  Obs.Events.Irrevocable_fallback;
              attempt
                (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
                 else 0)
        end
    | exception e ->
        tx.depth <- 0;
        rollback tx;
        Rwl_sf.clear_announcement t tx.ctx;
        finish_escalation tx;
        raise e
  in
  attempt txn_t0

let atomic ?read_only f =
  ignore read_only;
  let tx = get_tx () in
  if tx.depth > 0 then f tx else Admission.guard (fun () -> run tx f)

let commits () = Stm_intf.Stats.commits stats
let aborts () = Stm_intf.Stats.aborts stats
let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

let reset_stats () =
  Stm_intf.Stats.reset stats;
  Rwl_sf.reset_clock_increments (Util.Once.get table);
  Obs.Scope.reset obs
let last_restarts () = (get_tx ()).finished_restarts
let leaked_locks () =
  if !built then Rwl_sf.leaked (Util.Once.get table) else 0
