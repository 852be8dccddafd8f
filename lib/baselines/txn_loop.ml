module Obs = Twoplsf_obs
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission

exception Restart

type t = {
  tid : int;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable escalated : bool;
  mutable reason : Obs.Events.abort_reason;
  mutable aborter : int;
  mutable lock : int;
  mutable commit_t0 : int;
  ov : Cm.state;
}

let make ~tid =
  {
    tid;
    depth = 0;
    restarts = 0;
    finished_restarts = 0;
    escalated = false;
    reason = Obs.Events.User_restart;
    aborter = -1;
    lock = -1;
    commit_t0 = 0;
    ov = Cm.make_state ();
  }

let restart lp reason ~aborter ~lock =
  lp.reason <- reason;
  lp.aborter <- aborter;
  lp.lock <- lock;
  raise Restart

module type PROTOCOL = sig
  type tx

  val name : string
  val obs : Obs.Scope.t
  val stats : Stm_intf.Stats.t
  val get_tx : unit -> tx
  val loop : tx -> t
  val begin_attempt : tx -> read_only:bool -> unit
  val commit : tx -> unit
  val rollback : tx -> unit
  val native_wait : tx -> attempt:int -> unit
  val retire : tx -> unit
  val set_deadline : tx -> int -> unit
end

module Backoff_hooks = struct
  let native_wait _ ~attempt = Util.Backoff.exponential ~attempt
  let retire _ = ()
  let set_deadline _ _ = ()
end

module Make (P : PROTOCOL) = struct
  let finish_escalation lp =
    if lp.escalated then begin
      lp.escalated <- false;
      Cm.Fallback.release ()
    end

  (* The native wait before a retry, attributed to [Backoff] under
     telemetry. *)
  let native_wait tx lp telemetry =
    if telemetry then begin
      let t0 = Obs.Telemetry.now_ns () in
      P.native_wait tx ~attempt:lp.restarts;
      Obs.Scope.phase_add P.obs ~tid:lp.tid Obs.Phase.Backoff
        (Obs.Telemetry.now_ns () - t0)
    end
    else P.native_wait tx ~attempt:lp.restarts

  (* Top-level and closure-free on the commit path: every argument is
     passed, nothing is captured. *)
  let rec attempt tx lp read_only f telemetry txn_t0 att_t0 =
    lp.reason <- Obs.Events.User_restart;
    lp.aborter <- -1;
    lp.lock <- -1;
    P.begin_attempt tx ~read_only;
    lp.depth <- 1;
    match
      let v = f tx in
      (* Commit-time locking, validation, write-back and release all
         count as the [Commit] phase. *)
      if telemetry then lp.commit_t0 <- Obs.Telemetry.now_ns ();
      P.commit tx;
      v
    with
    | v ->
        lp.depth <- 0;
        finish_escalation lp;
        Stm_intf.Stats.commit P.stats ~tid:lp.tid;
        lp.finished_restarts <- lp.restarts;
        if telemetry then
          Obs.Scope.txn_commit P.obs ~tid:lp.tid ~txn_t0_ns:txn_t0
            ~att_t0_ns:att_t0 ~commit_t0_ns:lp.commit_t0 ();
        v
    | exception Restart ->
        lp.depth <- 0;
        P.rollback tx;
        Stm_intf.Stats.abort P.stats ~tid:lp.tid;
        if telemetry then
          Obs.Scope.txn_abort P.obs ~aborter:lp.aborter ~lock:lp.lock
            ~tid:lp.tid ~att_t0_ns:att_t0 lp.reason;
        lp.restarts <- lp.restarts + 1;
        if lp.escalated then begin
          (* Serial slow path: the fallback mutex keeps other escalated
             transactions out; retry unconditionally. *)
          native_wait tx lp telemetry;
          retry tx lp read_only f telemetry txn_t0
        end
        else begin
          match
            Cm.after_abort ~stm:P.name ~tid:lp.tid ~restarts:lp.restarts
              ~st:lp.ov
              ~native_wait:(fun () -> native_wait tx lp telemetry)
              ~cleanup:(fun () -> P.retire tx)
              ~reasons:(fun () ->
                if telemetry then Obs.Scope.abort_counts P.obs else [])
          with
          | Cm.Retry ->
              P.set_deadline tx lp.ov.Cm.deadline;
              retry tx lp read_only f telemetry txn_t0
          | Cm.Escalate ->
              Cm.Fallback.acquire ();
              lp.escalated <- true;
              P.set_deadline tx 0;
              if telemetry then
                Obs.Scope.event P.obs ~tid:lp.tid
                  Obs.Events.Irrevocable_fallback;
              retry tx lp read_only f telemetry txn_t0
        end
    | exception e ->
        lp.depth <- 0;
        P.rollback tx;
        P.retire tx;
        finish_escalation lp;
        raise e

  and retry tx lp read_only f telemetry txn_t0 =
    attempt tx lp read_only f telemetry txn_t0
      (if telemetry then Obs.Scope.retry_start P.obs ~tid:lp.tid else 0)

  let run tx lp read_only f =
    lp.restarts <- 0;
    P.set_deadline tx (Cm.begin_txn lp.ov);
    let telemetry = !Obs.Telemetry.on in
    let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
    attempt tx lp read_only f telemetry txn_t0 txn_t0

  let atomic ?(read_only = false) f =
    let tx = P.get_tx () in
    let lp = P.loop tx in
    if lp.depth > 0 then f tx
    else if !Admission.on then begin
      Admission.enter ();
      match run tx lp read_only f with
      | v ->
          Admission.leave ();
          v
      | exception e ->
          Admission.leave ();
          raise e
    end
    else run tx lp read_only f

  let commits () = Stm_intf.Stats.commits P.stats
  let aborts () = Stm_intf.Stats.aborts P.stats

  let reset_stats () =
    Stm_intf.Stats.reset P.stats;
    Obs.Scope.reset P.obs

  let last_restarts () = (P.loop (P.get_tx ())).finished_restarts
end
