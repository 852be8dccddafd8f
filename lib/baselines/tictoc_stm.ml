open Tvar (* brings the { id; v } field labels into scope *)

let name = "TicToc-STM"

module Obs = Twoplsf_obs
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission
module Chaos = Twoplsf_chaos.Chaos

exception Restart

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

(* Per-orec word: bit 0 = lock, bits 1..40 = wts, bits 41..62 = delta
   (rts = wts + delta, capped) — same packing as Dbx.Cc_tictoc. *)
let lock_bit = 1
let wts_mask = (1 lsl 40) - 1
let delta_shift = 41
let delta_max = (1 lsl 22) - 1
let is_locked w = w land lock_bit <> 0
let wts_of w = (w lsr 1) land wts_mask
let rts_of w = wts_of w + (w lsr delta_shift)

let pack ~locked ~wts ~rts =
  let delta = Stdlib.min (rts - wts) delta_max in
  (if locked then lock_bit else 0) lor (wts lsl 1) lor (delta lsl delta_shift)

let read_budget = 1 lsl 17

type tx = {
  tid : int;
  rset : (int * int) Util.Vec.t; (* (orec index, observed word) *)
  wset : Wset.t;
  locked : (int * int) Util.Vec.t; (* (orec index, pre-lock word) *)
  mutable reads : int;
  mutable ro : bool;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable escalated : bool; (* overload fallback: Cm.Fallback mutex held *)
  ov : Cm.state;
  mutable abort_reason : Obs.Events.abort_reason;
  mutable c_orec : int;
      (* orec the in-flight abort is pinned on, or -1 (conflict
         cartography; TicToc lock words carry no owner tid, so the
         aborter side of the edge is always unknown) *)
}

let requested_num_orecs = ref 65536
let built = ref false

type table = { mask : int; words : int Atomic.t array }

let table =
  Util.Once.create (fun () ->
      built := true;
      let n = !requested_num_orecs in
      if n land (n - 1) <> 0 || n <= 0 then
        invalid_arg "Tictoc_stm: num_orecs must be a power of two";
      {
        mask = n - 1;
        words = Array.init n (fun _ -> Atomic.make (pack ~locked:false ~wts:0 ~rts:0));
      })

let configure ?(num_orecs = 65536) () =
  if !built then failwith "Tictoc_stm.configure: orec table already built";
  requested_num_orecs := num_orecs

let stats = Stm_intf.Stats.create ()
let obs = Obs.Scope.create "TicToc-STM"

let tx_key =
  Domain.DLS.new_key (fun () ->
      {
        tid = Util.Tid.get ();
        rset = Util.Vec.create ~dummy:(-1, 0) ();
        wset = Wset.create ();
        locked = Util.Vec.create ~dummy:(-1, 0) ();
        reads = 0;
        ro = false;
        depth = 0;
        restarts = 0;
        finished_restarts = 0;
        escalated = false;
        ov = Cm.make_state ();
        abort_reason = Obs.Events.User_restart;
        c_orec = -1;
      })

let get_tx () = Domain.DLS.get tx_key

let stable_word t tx oi =
  (* Bounded wait for an unlocked word.  The sync point inside the loop
     keeps this schedulable: under the cooperative scheduler the lock
     holder is parked, and without a scheduling decision per iteration
     this spin could never hand it the baton. *)
  let rec go n =
    if n > 1000 then begin
      tx.c_orec <- oi;
      raise Restart
    end;
    if !Chaos.on then Chaos.point Chaos.Validate;
    let w = Atomic.get t.words.(oi) in
    if is_locked w then begin
      Domain.cpu_relax ();
      go (n + 1)
    end
    else w
  in
  go 0

let read tx (tv : 'a tvar) : 'a =
  tx.reads <- tx.reads + 1;
  if tx.reads > read_budget then begin
    (* Zombie-escape budget, not a data conflict: outside the taxonomy. *)
    tx.abort_reason <- Obs.Events.User_restart;
    raise Restart
  end;
  (* Any Restart below is a read that saw a locked or changed word. *)
  tx.abort_reason <- Obs.Events.Read_validation;
  (* No snapshot validation: this is the non-opacity under test. *)
  if not tx.ro then
    match Wset.find tx.wset tv with
    | Some v -> v
    | None ->
        let t = Util.Once.get table in
        let oi = tv.id land t.mask in
        let w = stable_word t tx oi in
        let v = tv.v in
        if !Chaos.on then Chaos.point Chaos.Orec_check;
        if Atomic.get t.words.(oi) <> w then begin
          tx.c_orec <- oi;
          raise Restart
        end;
        Util.Vec.push tx.rset (oi, w);
        v
  else begin
    let t = Util.Once.get table in
    let oi = tv.id land t.mask in
    let w = stable_word t tx oi in
    let v = tv.v in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    if Atomic.get t.words.(oi) <> w then begin
      tx.c_orec <- oi;
      raise Restart
    end;
    Util.Vec.push tx.rset (oi, w);
    v
  end

let write tx tv nv =
  if tx.ro then invalid_arg "Tictoc_stm.write inside a read-only transaction";
  Wset.add tx.wset tv nv

let unlock_all t tx =
  Util.Vec.iter
    (fun (oi, pre) -> Atomic.set t.words.(oi) pre)
    tx.locked

let is_self_locked tx oi = Util.Vec.exists (fun (o, _) -> o = oi) tx.locked

let lock_write_set t tx =
  let ok = ref true in
  (try
     Wset.iter_ids tx.wset (fun id ->
         let oi = id land t.mask in
         if !Chaos.on then Chaos.point Chaos.Orec_lock;
         if is_self_locked tx oi then ()
         else begin
           let w = Atomic.get t.words.(oi) in
           if is_locked w then begin
             tx.c_orec <- oi;
             raise Exit
           end;
           if not (Atomic.compare_and_set t.words.(oi) w (w lor lock_bit))
           then begin
             tx.c_orec <- oi;
             raise Exit
           end;
           Util.Vec.push tx.locked (oi, w)
         end)
   with Exit -> ok := false);
  !ok

let commit tx =
  if Wset.is_empty tx.wset then ()
  else begin
    let t = Util.Once.get table in
    if not (lock_write_set t tx) then begin
      unlock_all t tx;
      tx.abort_reason <- Obs.Events.Commit_lock_conflict;
      raise Restart
    end;
    (* Commit timestamp: above every read's wts and every write's rts. *)
    let ct = ref 0 in
    Util.Vec.iter (fun (_, pre) -> ct := Stdlib.max !ct (rts_of pre + 1)) tx.locked;
    Util.Vec.iter (fun (_, w) -> ct := Stdlib.max !ct (wts_of w)) tx.rset;
    let ct = !ct in
    let ok = ref true in
    (try
       Util.Vec.iter
         (fun (oi, observed) ->
           if !Chaos.on then Chaos.point Chaos.Validate;
           if rts_of observed < ct then begin
             let cur = Atomic.get t.words.(oi) in
             if wts_of cur <> wts_of observed then begin
               tx.c_orec <- oi;
               raise Exit
             end;
             if is_locked cur then begin
               if not (is_self_locked tx oi) then begin
                 tx.c_orec <- oi;
                 raise Exit
               end
               (* our own commit lock: the write phase stamps it to ct *)
             end
             else if
               rts_of cur < ct
               && not
                    (Atomic.compare_and_set t.words.(oi) cur
                       (pack ~locked:false ~wts:(wts_of cur) ~rts:ct))
             then begin
               tx.c_orec <- oi;
               raise Exit
             end
           end)
         tx.rset
     with Exit -> ok := false);
    if not !ok then begin
      unlock_all t tx;
      tx.abort_reason <- Obs.Events.Commit_validation;
      raise Restart
    end;
    Wset.apply tx.wset;
    Util.Vec.iter
      (fun (oi, _) -> Atomic.set t.words.(oi) (pack ~locked:false ~wts:ct ~rts:ct))
      tx.locked
  end

let begin_attempt tx ~ro =
  Util.Vec.clear tx.rset;
  Wset.clear tx.wset;
  Util.Vec.clear tx.locked;
  tx.reads <- 0;
  tx.abort_reason <- Obs.Events.User_restart;
  tx.c_orec <- -1;
  tx.ro <- ro

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
  (* Native inter-attempt wait, attributed to [Backoff] under telemetry. *)
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
      (* Commit-time locking, OCC validation and write-back count as the
         [Commit] phase. *)
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
          Obs.Scope.txn_abort obs ~lock:tx.c_orec ~tid:tx.tid
            ~att_t0_ns:att_t0 tx.abort_reason;
        tx.restarts <- tx.restarts + 1;
        if tx.escalated then begin
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
           escaping mid-commit does: restore any commit-locked words to
           their pre-lock values before propagating. *)
        (if !built then unlock_all (Util.Once.get table) tx);
        finish_escalation tx;
        raise e
  in
  attempt 1 txn_t0

let atomic ?(read_only = false) f =
  let tx = get_tx () in
  if tx.depth > 0 then f tx
  else Admission.guard (fun () -> run tx read_only f)

let commits () = Stm_intf.Stats.commits stats
let aborts () = Stm_intf.Stats.aborts stats
let clock_ops () = 0 (* TicToc's selling point: no central clock at all *)

let reset_stats () =
  Stm_intf.Stats.reset stats;
  Obs.Scope.reset obs

let last_restarts () = (get_tx ()).finished_restarts

let leaked_locks () =
  if not !built then 0
  else begin
    let t = Util.Once.get table in
    let n = ref 0 in
    Array.iter (fun w -> if is_locked (Atomic.get w) then incr n) t.words;
    !n
  end
