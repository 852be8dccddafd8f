let name = "TL2"

module Obs = Twoplsf_obs
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission
module Chaos = Twoplsf_chaos.Chaos

exception Restart

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  tid : int;
  mutable rv : int;
  rset : int Util.Vec.t; (* orec indices of validated reads *)
  wset : Wset.t;
  acquired : (int * int) Util.Vec.t; (* commit-time locks: (orec, old version) *)
  mutable ro : bool;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable escalated : bool; (* overload fallback: Cm.Fallback mutex held *)
  ov : Cm.state;
  mutable abort_reason : Obs.Events.abort_reason;
  mutable c_orec : int; (* orec the in-flight abort is pinned on, or -1 *)
  mutable c_owner : int; (* its lock owner at detection time, or -1 *)
}

let requested_num_orecs = ref 65536
let built = ref false

let orecs =
  Util.Once.create (fun () ->
      built := true;
      Orec.create ~num_orecs:!requested_num_orecs)

let configure ?(num_orecs = 65536) () =
  if !built then failwith "Tl2.configure: orec table already built";
  requested_num_orecs := num_orecs

let clock = Atomic.make 0
let stats = Stm_intf.Stats.create ()
let obs = Obs.Scope.create "TL2"

let tx_key =
  Domain.DLS.new_key (fun () ->
      {
        tid = Util.Tid.get ();
        rv = 0;
        rset = Util.Vec.create ~dummy:(-1) ();
        wset = Wset.create ();
        acquired = Util.Vec.create ~dummy:(-1, -1) ();
        ro = false;
        depth = 0;
        restarts = 0;
        finished_restarts = 0;
        escalated = false;
        ov = Cm.make_state ();
        abort_reason = Obs.Events.User_restart;
        c_orec = -1;
        c_owner = -1;
      })

let get_tx () = Domain.DLS.get tx_key

(* Pin the in-flight abort on orec [oi] (conflict-cartography provenance):
   the aborter is the lock owner when [word] is locked; version-too-new
   conflicts have no identifiable owner. *)
let pin tx oi word =
  tx.c_orec <- oi;
  tx.c_owner <- (if Orec.is_locked word then Orec.owner word else -1)

let read tx (tv : 'a tvar) : 'a =
  let o = Util.Once.get orecs in
  if not tx.ro then
    match Wset.find tx.wset tv with
    | Some v -> v
    | None ->
        let oi = Orec.index o tv.id in
        let pre = Orec.get o oi in
        (* Sync points bracket the sampled-read window: orec load ->
           value fetch and value fetch -> recheck. *)
        if !Chaos.on then Chaos.point Chaos.Orec_check;
        if Orec.is_locked pre || Orec.version pre > tx.rv then begin
          pin tx oi pre;
          tx.abort_reason <- Obs.Events.Read_validation;
          raise Restart
        end;
        let v = tv.v in
        if !Chaos.on then Chaos.point Chaos.Orec_check;
        if Orec.get o oi <> pre then begin
          pin tx oi (Orec.get o oi);
          tx.abort_reason <- Obs.Events.Read_validation;
          raise Restart
        end;
        Util.Vec.push tx.rset oi;
        v
  else begin
    let oi = Orec.index o tv.id in
    let pre = Orec.get o oi in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    if Orec.is_locked pre || Orec.version pre > tx.rv then begin
      pin tx oi pre;
      tx.abort_reason <- Obs.Events.Read_validation;
      raise Restart
    end;
    let v = tv.v in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    if Orec.get o oi <> pre then begin
      pin tx oi (Orec.get o oi);
      tx.abort_reason <- Obs.Events.Read_validation;
      raise Restart
    end;
    v
  end

let write tx tv nv =
  if tx.ro then invalid_arg "Tl2.write inside a read-only transaction";
  Wset.add tx.wset tv nv

let release_acquired tx =
  let o = Util.Once.get orecs in
  Util.Vec.iter_rev
    (fun (oi, old_version) -> Orec.unlock_to o oi ~version:old_version)
    tx.acquired

let lock_write_set tx =
  let o = Util.Once.get orecs in
  let ok = ref true in
  (try
     Wset.iter_ids tx.wset (fun id ->
         let oi = Orec.index o id in
         if !Chaos.on then Chaos.point Chaos.Orec_lock;
         let w = Orec.get o oi in
         if Orec.is_locked w && Orec.owner w = tx.tid then ()
           (* another tvar hashing onto an orec we already own *)
         else
           match Orec.try_lock o ~tid:tx.tid oi with
           | Some old_version -> Util.Vec.push tx.acquired (oi, old_version)
           | None ->
               pin tx oi (Orec.get o oi);
               raise Exit)
   with Exit -> ok := false);
  !ok

(* Version an orec had when this commit locked it (linear scan: commit
   write sets are small). *)
let acquired_old_version tx oi =
  let n = Util.Vec.length tx.acquired in
  let rec go i =
    if i >= n then None
    else
      let oj, old_version = Util.Vec.get tx.acquired i in
      if oj = oi then Some old_version else go (i + 1)
  in
  go 0

let validate_read_set tx =
  let o = Util.Once.get orecs in
  let ok = ref true in
  (try
     Util.Vec.iter
       (fun oi ->
         if !Chaos.on then Chaos.point Chaos.Validate;
         let w = Orec.get o oi in
         if Orec.is_locked w then begin
           if Orec.owner w <> tx.tid then begin
             pin tx oi w;
             raise Exit
           end;
           (* Self-locked: the commit-time CAS may have succeeded from a
              version newer than rv; the read is valid only if the pre-lock
              version was within the snapshot. *)
           match acquired_old_version tx oi with
           | Some old_version when old_version <= tx.rv -> ()
           | Some _ | None ->
               pin tx oi w;
               raise Exit
         end
         else if Orec.version w > tx.rv then begin
           pin tx oi w;
           raise Exit
         end)
       tx.rset
   with Exit -> ok := false);
  !ok

let commit tx =
  if Wset.is_empty tx.wset then ()
  else begin
    if not (lock_write_set tx) then begin
      release_acquired tx;
      tx.abort_reason <- Obs.Events.Commit_lock_conflict;
      raise Restart
    end;
    let wv = 1 + Atomic.fetch_and_add clock 1 in
    Stm_intf.Stats.clock_op stats ~tid:tx.tid;
    if wv <> tx.rv + 1 && not (validate_read_set tx) then begin
      release_acquired tx;
      tx.abort_reason <- Obs.Events.Commit_validation;
      raise Restart
    end;
    Wset.apply tx.wset;
    let o = Util.Once.get orecs in
    Util.Vec.iter (fun (oi, _) -> Orec.unlock_to o oi ~version:wv) tx.acquired
  end

let begin_attempt tx ~ro =
  Util.Vec.clear tx.rset;
  Wset.clear tx.wset;
  Util.Vec.clear tx.acquired;
  tx.ro <- ro;
  tx.abort_reason <- Obs.Events.User_restart;
  tx.c_orec <- -1;
  tx.c_owner <- -1;
  tx.rv <- Atomic.get clock

let finish_escalation tx =
  if tx.escalated then begin
    tx.escalated <- false;
    Cm.Fallback.release ()
  end

let run tx read_only f =
  tx.restarts <- 0;
  ignore (Cm.begin_txn tx.ov);
  let telemetry = !Obs.Telemetry.on in
  let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  let commit_t0 = ref 0 in
  (* The native inter-attempt wait, attributed to the [Backoff] phase
     when telemetry is on. *)
  let native_wait n () =
    if telemetry then begin
      let t0 = Obs.Telemetry.now_ns () in
      Util.Backoff.exponential ~attempt:n;
      Obs.Scope.phase_add obs ~tid:tx.tid Obs.Phase.Backoff
        (Obs.Telemetry.now_ns () - t0)
    end
    else Util.Backoff.exponential ~attempt:n
  in
  let rec attempt n att_t0 =
    begin_attempt tx ~ro:read_only;
    tx.depth <- 1;
    match
      let v = f tx in
      (* Commit-time write-set locking, validation and write-back all
         count as the [Commit] phase. *)
      if telemetry then commit_t0 := Obs.Telemetry.now_ns ();
      commit tx;
      v
    with
    | v ->
        tx.depth <- 0;
        finish_escalation tx;
        Stm_intf.Stats.commit stats ~tid:tx.tid;
        tx.finished_restarts <- tx.restarts;
        if telemetry then
          Obs.Scope.txn_commit obs ~tid:tx.tid ~txn_t0_ns:txn_t0
            ~att_t0_ns:att_t0 ~commit_t0_ns:!commit_t0 ();
        v
    | exception Restart ->
        tx.depth <- 0;
        Stm_intf.Stats.abort stats ~tid:tx.tid;
        if telemetry then
          Obs.Scope.txn_abort obs ~aborter:tx.c_owner ~lock:tx.c_orec
            ~tid:tx.tid ~att_t0_ns:att_t0 tx.abort_reason;
        tx.restarts <- tx.restarts + 1;
        if tx.escalated then begin
          (* Serial slow path: the fallback mutex keeps other escalated
             transactions out; retry unconditionally. *)
          native_wait n ();
          attempt (n + 1)
            (if telemetry then Obs.Scope.retry_start obs ~tid:tx.tid else 0)
        end
        else begin
          match
            Cm.after_abort ~stm:name ~tid:tx.tid ~restarts:tx.restarts
              ~st:tx.ov
              ~native_wait:(native_wait n)
              ~cleanup:(fun () -> ())
              ~reasons:(fun () ->
                if telemetry then Obs.Scope.abort_counts obs else [])
          with
          | Cm.Retry ->
              attempt (n + 1)
                (if telemetry then Obs.Scope.retry_start obs ~tid:tx.tid else 0)
          | Cm.Escalate ->
              Cm.Fallback.acquire ();
              tx.escalated <- true;
              if telemetry then
                Obs.Scope.event obs ~tid:tx.tid Obs.Events.Irrevocable_fallback;
              attempt (n + 1)
                (if telemetry then Obs.Scope.retry_start obs ~tid:tx.tid else 0)
        end
    | exception e ->
        tx.depth <- 0;
        (* The body holds no locks (lazy locking), but an exception
           escaping mid-commit does: drop any commit-time orec locks to
           their pre-lock versions before propagating. *)
        release_acquired tx;
        finish_escalation tx;
        raise e
  in
  attempt 1 txn_t0

let atomic ?(read_only = false) f =
  let tx = get_tx () in
  if tx.depth > 0 then f tx else Admission.guard (fun () -> run tx read_only f)

let commits () = Stm_intf.Stats.commits stats
let aborts () = Stm_intf.Stats.aborts stats
let clock_ops () = Stm_intf.Stats.clock_ops stats

let reset_stats () =
  Stm_intf.Stats.reset stats;
  Obs.Scope.reset obs

let last_restarts () = (get_tx ()).finished_restarts
let leaked_locks () =
  if !built then Orec.locked_count (Util.Once.get orecs) else 0
