open Tvar (* brings the { id; v } field labels into scope *)

let name = "2PL-WoundWait"

module Obs = Twoplsf_obs
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission
module Chaos = Twoplsf_chaos.Chaos

exception Restart

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type ctx = {
  tid : int;
  mutable my_ts : int;
  mutable deadline_ns : int; (* absolute; 0 = none (DESIGN.md §11) *)
  mutable deadline_hit : bool;
  mutable o_tid : int; (* who wounded us (or last held the lock), or -1 *)
  mutable o_lock : int; (* lock the failed acquisition was on, or -1 *)
}

let deadline_blown ctx =
  ctx.deadline_ns <> 0 && Obs.Telemetry.now_ns () > ctx.deadline_ns

type tx = {
  ctx : ctx;
  rset : int Util.Vec.t;
  wlocks : int Util.Vec.t;
  undo : Wset.t;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable escalated : bool; (* overload fallback: Cm.Fallback mutex held *)
  ov : Cm.state;
  mutable abort_reason : Obs.Events.abort_reason;
}

type table = {
  mask : int;
  wlocks : int Atomic.t array; (* 0 = free, tid+1 = writer *)
  ri : Rwlock.Read_indicator.t;
  announce : int Atomic.t array; (* per-txn timestamps; 0 = idle *)
  wounded : int Atomic.t array;
      (* 0 = not wounded, wounder tid + 1 otherwise: the provenance edge
         "who wounded whom" that plain wound-wait never records *)
  clock : int Atomic.t;
}

let requested_num_locks = ref 65536
let built = ref false

let table =
  Util.Once.create (fun () ->
      built := true;
      let num_locks = !requested_num_locks in
      if num_locks land (num_locks - 1) <> 0 || num_locks < 32 then
        invalid_arg "Wound_wait: num_locks must be a power of two >= 32";
      {
        mask = num_locks - 1;
        wlocks = Array.init num_locks (fun _ -> Atomic.make 0);
        ri = Rwlock.Read_indicator.create ~num_locks;
        announce = Array.init Util.Tid.max_threads (fun _ -> Atomic.make 0);
        wounded = Array.init Util.Tid.max_threads (fun _ -> Atomic.make 0);
        clock = Atomic.make 1;
      })

let configure ?(num_locks = 65536) () =
  if !built then failwith "Wound_wait.configure: lock table already built";
  requested_num_locks := num_locks

let stats = Stm_intf.Stats.create ()
let obs = Obs.Scope.create name

let tx_key =
  Domain.DLS.new_key (fun () ->
      {
        ctx =
          {
            tid = Util.Tid.get ();
            my_ts = 0;
            deadline_ns = 0;
            deadline_hit = false;
            o_tid = -1;
            o_lock = -1;
          };
        rset = Util.Vec.create ~dummy:(-1) ();
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

let ts_of t tid =
  let v = Atomic.get t.announce.(tid) in
  if v = 0 then max_int else v

let wound t ~by victim = Atomic.set t.wounded.(victim) (by + 1)

(* On a wound, remember the wounder: it is the aborter side of the
   provenance edge the restart arm records. *)
let am_wounded t ctx =
  let by = Atomic.get t.wounded.(ctx.tid) in
  if by <> 0 then begin
    ctx.o_tid <- by - 1;
    true
  end
  else false

(* Older (lower-ts) requesters wound the conflicting owner(s) and wait;
   younger ones just wait.  A wounded transaction notices at its next
   acquisition attempt and restarts. *)
let acquire_read t ctx w =
  let telemetry = !Obs.Telemetry.on in
  let t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  let b = Util.Backoff.create () in
  let spins = ref 0 in
  (* Waited (or failed) acquisitions feed the lock-wait telemetry and the
     per-lock conflict sketch; uncontended ones stay off the slow path. *)
  let finish acquired =
    if telemetry && (!spins > 0 || not acquired) then
      Obs.Scope.lock_wait obs ~lock:w ~tid:ctx.tid ~write:false ~t0_ns:t0
        ~spins:!spins ~acquired;
    acquired
  in
  let rec loop () =
    (* Sync point per wait iteration: under the cooperative scheduler
       this is the only way the parked lock holder (or our wounder) ever
       gets to run. *)
    if !Chaos.on then Chaos.point Chaos.Wound_check;
    if am_wounded t ctx then begin
      ctx.o_lock <- w;
      finish false
    end
    else if deadline_blown ctx then begin
      ctx.deadline_hit <- true;
      ctx.o_lock <- w;
      finish false
    end
    else begin
      Rwlock.Read_indicator.arrive t.ri ~tid:ctx.tid w;
      let ws = Atomic.get t.wlocks.(w) in
      if ws = 0 || ws = ctx.tid + 1 then finish true
      else begin
        (* Conflicting writer: back off the indicator so the writer can
           finish, wound it if we are older, and retry. *)
        Rwlock.Read_indicator.depart t.ri ~tid:ctx.tid w;
        let holder = ws - 1 in
        ctx.o_tid <- holder;
        ctx.o_lock <- w;
        if ctx.my_ts < ts_of t holder then wound t ~by:ctx.tid holder;
        incr spins;
        Util.Backoff.once b;
        loop ()
      end
    end
  in
  loop ()

let acquire_write t ctx w =
  let me = ctx.tid + 1 in
  if Atomic.get t.wlocks.(w) = me then true
  else begin
    let telemetry = !Obs.Telemetry.on in
    let t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
    let b = Util.Backoff.create () in
    let spins = ref 0 in
    let finish acquired =
      if telemetry && (!spins > 0 || not acquired) then
        Obs.Scope.lock_wait obs ~lock:w ~tid:ctx.tid ~write:true ~t0_ns:t0
          ~spins:!spins ~acquired;
      acquired
    in
    let rec loop () =
      if !Chaos.on then Chaos.point Chaos.Wound_check;
      if am_wounded t ctx then begin
        if Atomic.get t.wlocks.(w) = me then Atomic.set t.wlocks.(w) 0;
        ctx.o_lock <- w;
        finish false
      end
      else if deadline_blown ctx then begin
        if Atomic.get t.wlocks.(w) = me then Atomic.set t.wlocks.(w) 0;
        ctx.deadline_hit <- true;
        ctx.o_lock <- w;
        finish false
      end
      else begin
        (if Atomic.get t.wlocks.(w) = 0 then
           ignore (Atomic.compare_and_set t.wlocks.(w) 0 me));
        let ws = Atomic.get t.wlocks.(w) in
        if ws = me then begin
          if Rwlock.Read_indicator.is_empty t.ri ~self:ctx.tid w then
            finish true
          else begin
            (* Wound younger readers; they depart when they notice. *)
            Rwlock.Read_indicator.iter_readers t.ri ~self:ctx.tid w
              (fun reader ->
                if ctx.my_ts < ts_of t reader then wound t ~by:ctx.tid reader);
            incr spins;
            Util.Backoff.once b;
            loop ()
          end
        end
        else if ws = 0 then
          (* The holder released between the CAS attempt and the load:
             there is no one to wound, so retry the CAS. *)
          loop ()
        else begin
          let holder = ws - 1 in
          ctx.o_tid <- holder;
          ctx.o_lock <- w;
          if ctx.my_ts < ts_of t holder then wound t ~by:ctx.tid holder;
          incr spins;
          Util.Backoff.once b;
          loop ()
        end
      end
    in
    loop ()
  end

let read tx (tv : 'a tvar) : 'a =
  let t = Util.Once.get table in
  let w = tv.id land t.mask in
  if
    Rwlock.Read_indicator.holds t.ri ~tid:tx.ctx.tid w
    || Atomic.get t.wlocks.(w) = tx.ctx.tid + 1
  then tv.v (* re-read under a lock we already hold *)
  else if acquire_read t tx.ctx w then begin
    Util.Vec.push tx.rset w;
    tv.v
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Priority_preemption);
    raise Restart
  end

let write tx tv nv =
  let t = Util.Once.get table in
  let w = tv.id land t.mask in
  let held = Atomic.get t.wlocks.(w) = tx.ctx.tid + 1 in
  if held || acquire_write t tx.ctx w then begin
    if not held then Util.Vec.push tx.wlocks w;
    Wset.log_old_once tx.undo tv tv.v;
    tv.v <- nv
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Priority_preemption);
    raise Restart
  end

let release t tx =
  Util.Vec.iter
    (fun w -> if Atomic.get t.wlocks.(w) = tx.ctx.tid + 1 then Atomic.set t.wlocks.(w) 0)
    tx.wlocks;
  Util.Vec.iter
    (fun w -> Rwlock.Read_indicator.depart t.ri ~tid:tx.ctx.tid w)
    tx.rset

let rollback t tx =
  Wset.rollback tx.undo;
  release t tx

let begin_attempt t tx =
  Util.Vec.clear tx.rset;
  Util.Vec.clear tx.wlocks;
  Wset.clear tx.undo;
  Atomic.set t.wounded.(tx.ctx.tid) 0;
  tx.ctx.o_tid <- -1;
  tx.ctx.o_lock <- -1;
  tx.abort_reason <- Obs.Events.User_restart;
  if tx.ctx.my_ts = 0 then begin
    tx.ctx.my_ts <- Atomic.fetch_and_add t.clock 1;
    Stm_intf.Stats.clock_op stats ~tid:tx.ctx.tid;
    Atomic.set t.announce.(tx.ctx.tid) tx.ctx.my_ts
  end

let finish t tx =
  tx.ctx.my_ts <- 0;
  Atomic.set t.announce.(tx.ctx.tid) 0;
  Atomic.set t.wounded.(tx.ctx.tid) 0

let finish_escalation tx =
  if tx.escalated then begin
    tx.escalated <- false;
    Cm.Fallback.release ()
  end

let run tx f =
  tx.restarts <- 0;
  tx.ctx.deadline_ns <- Cm.begin_txn tx.ov;
  tx.ctx.deadline_hit <- false;
  let t = Util.Once.get table in
  let telemetry = !Obs.Telemetry.on in
  let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  let rec attempt att_t0 =
    begin_attempt t tx;
    tx.depth <- 1;
    match f tx with
    | v ->
        tx.depth <- 0;
        (* A wound that arrives after the last acquisition is too late:
           the transaction has all its locks and commits (standard
           wound-wait: finished transactions are not aborted). *)
        let commit_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
        release t tx;
        finish t tx;
        finish_escalation tx;
        Stm_intf.Stats.commit stats ~tid:tx.ctx.tid;
        tx.finished_restarts <- tx.restarts;
        if telemetry then
          Obs.Scope.txn_commit obs ~tid:tx.ctx.tid ~txn_t0_ns:txn_t0
            ~att_t0_ns:att_t0 ~commit_t0_ns:commit_t0 ();
        v
    | exception Restart ->
        tx.depth <- 0;
        rollback t tx;
        tx.ctx.deadline_hit <- false;
        Stm_intf.Stats.abort stats ~tid:tx.ctx.tid;
        if telemetry then
          Obs.Scope.txn_abort obs ~aborter:tx.ctx.o_tid ~lock:tx.ctx.o_lock
            ~tid:tx.ctx.tid ~att_t0_ns:att_t0 tx.abort_reason;
        tx.restarts <- tx.restarts + 1;
        if tx.escalated then
          attempt
            (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid else 0)
        else begin
          match
            Cm.after_abort ~stm:name ~tid:tx.ctx.tid ~restarts:tx.restarts
              ~st:tx.ov
                (* Keep the timestamp on retry: the restarted transaction
                   ages toward oldest, which is the starvation-freedom
                   argument; wound-wait's native inter-attempt wait is
                   "none". *)
              ~native_wait:(fun () -> ())
                (* Retire the timestamp before bailing out so younger
                   transactions stop wounding themselves against it. *)
              ~cleanup:(fun () -> finish t tx)
              ~reasons:(fun () ->
                if telemetry then Obs.Scope.abort_counts obs else [])
          with
          | Cm.Retry ->
              tx.ctx.deadline_ns <- tx.ov.Cm.deadline;
              attempt
                (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
                 else 0)
          | Cm.Escalate ->
              Cm.Fallback.acquire ();
              tx.escalated <- true;
              tx.ctx.deadline_ns <- 0;
              if telemetry then
                Obs.Scope.event obs ~tid:tx.ctx.tid
                  Obs.Events.Irrevocable_fallback;
              attempt
                (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
                 else 0)
        end
    | exception e ->
        tx.depth <- 0;
        rollback t tx;
        finish t tx;
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
let clock_ops () = Stm_intf.Stats.clock_ops stats
let reset_stats () =
  Stm_intf.Stats.reset stats;
  Obs.Scope.reset obs
let last_restarts () = (get_tx ()).finished_restarts

let leaked_locks () =
  if not !built then 0
  else begin
    let t = Util.Once.get table in
    let n = ref 0 in
    for w = 0 to t.mask do
      if Atomic.get t.wlocks.(w) <> 0 then incr n;
      if not (Rwlock.Read_indicator.is_empty t.ri ~self:(-1) w) then incr n
    done;
    !n
  end
