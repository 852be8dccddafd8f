(* The write-back (redo-log) 2PLSF protocol family (paper §2: "a
   write-back protocol (redo-log) can also be used with either eager
   locking or deferred locking").

   Reads are pessimistic exactly as in Algorithm 1.  Writes are buffered
   and installed at commit; the functor parameter picks when their write
   locks are taken:
   - eager: at encounter time (like Algorithm 1, minus the in-place store);
   - deferred: at commit time, still through tryOrWaitWriteLock, so the
     starvation-freedom argument is unchanged — the expanding phase merely
     extends into the commit.

   Aborts discard the buffer instead of rolling memory back. *)

module Make (P : sig
  val name : string
  val eager : bool
end) =
struct
  let name = P.name

  module Obs = Twoplsf_obs
  module Chaos = Twoplsf_chaos.Chaos
  module Cm = Twoplsf_cm.Cm
  module Admission = Twoplsf_cm.Admission

  exception Restart

  type 'a tvar = { id : int; mutable v : 'a }

  (* Redo-log entry; matched by unique tvar id, so the Obj.magic below only
     ever converts a value back to its own type (same trick, same safety
     argument as Baselines.Wset — duplicated here because the core library
     cannot depend on the baselines library). *)
  type rentry = R : { tv : 'a tvar; mutable nv : 'a } -> rentry

  type tx = {
    tbl : Rwl_sf.t; (* the lock table, resolved once per thread *)
    ctx : Rwl_sf.ctx; (* also holds the read set *)
    wset : int Util.Vec.t;
    redo : rentry Util.Vec.t;
    mutable bloom : int;
    mutable depth : int;
    mutable restarts : int;
    mutable finished_restarts : int;
    mutable escalated : bool;
        (* overload fallback: zero mutex held, priority 1 announced *)
    ov : Cm.state;
    mutable abort_reason : Obs.Events.abort_reason;
  }

  let requested_num_locks = ref 65536
  let configured = ref false
  let obs = Obs.Scope.create P.name

  let table =
    Util.Once.create (fun () ->
        configured := true;
        let t = Rwl_sf.create ~num_locks:!requested_num_locks () in
        Rwl_sf.set_obs t obs;
        t)

  let configure ?(num_locks = 65536) () =
    if !configured then failwith (name ^ ".configure: lock table already built");
    requested_num_locks := num_locks

  let stats = Stm_intf.Stats.create ()

  let dummy_rentry = R { tv = { id = -1; v = () }; nv = () }

  let tx_key =
    Domain.DLS.new_key (fun () ->
        let tid = Util.Tid.get () in
        {
          tbl = Util.Once.get table;
          ctx = Rwl_sf.make_ctx ~tid;
          wset = Util.Vec.create ~dummy:(-1) ();
          redo = Util.Vec.create ~dummy:dummy_rentry ();
          bloom = 0;
          depth = 0;
          restarts = 0;
          finished_restarts = 0;
          escalated = false;
          ov = Cm.make_state ();
          abort_reason = Obs.Events.User_restart;
        })

  let get_tx () = Domain.DLS.get tx_key

  let tvar v = { id = Util.Id_gen.next (); v }

  let bloom_bit id = 1 lsl (id land 62)

  let redo_find : type a. tx -> a tvar -> a option =
   fun tx tv ->
    if tx.bloom land bloom_bit tv.id = 0 then None
    else begin
      let n = Util.Vec.length tx.redo in
      let rec go i =
        if i >= n then None
        else
          match Util.Vec.get tx.redo i with
          | R e when e.tv.id = tv.id -> Some (Obj.magic e.nv)
          | R _ -> go (i + 1)
      in
      go 0
    end

  let redo_put tx tv nv =
    let n = Util.Vec.length tx.redo in
    let rec update i =
      if i >= n then Util.Vec.push tx.redo (R { tv; nv })
      else
        match Util.Vec.get tx.redo i with
        | R e when e.tv.id = tv.id -> e.nv <- Obj.magic nv
        | R _ -> update (i + 1)
    in
    if tx.bloom land bloom_bit tv.id = 0 then begin
      Util.Vec.push tx.redo (R { tv; nv });
      tx.bloom <- tx.bloom lor bloom_bit tv.id
    end
    else update 0

  let read tx tv =
    match redo_find tx tv with
    | Some v -> v
    | None ->
        let t = tx.tbl in
        if Rwl_sf.try_or_wait_read_lock t tx.ctx (Rwl_sf.lock_index t tv.id)
        then tv.v
        else begin
          tx.abort_reason <-
            (if tx.ctx.deadline_hit then Obs.Events.Deadline
             else Obs.Events.Read_lock_conflict);
          raise Restart
        end

  let acquire_write_lock tx tv =
    let t = tx.tbl in
    let w = Rwl_sf.lock_index t tv.id in
    let held = Rwl_sf.holds_write t tx.ctx w in
    if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
      if not held then Util.Vec.push tx.wset w;
      true
    end
    else begin
      tx.abort_reason <-
        (if tx.ctx.deadline_hit then Obs.Events.Deadline
         else if tx.ctx.preempted then Obs.Events.Priority_preemption
         else Obs.Events.Write_lock_conflict);
      false
    end

  let write tx tv nv =
    if P.eager && not (acquire_write_lock tx tv) then raise Restart;
    redo_put tx tv nv

  let release_locks tx =
    Util.Vec.iter (fun w -> Rwl_sf.write_unlock tx.tbl tx.ctx w) tx.wset;
    Rwl_sf.read_unlock_all tx.tbl tx.ctx

  let begin_attempt tx =
    Util.Vec.clear tx.wset;
    Util.Vec.clear tx.redo;
    tx.bloom <- 0;
    tx.ctx.deadline_hit <- false;
    tx.abort_reason <- Obs.Events.User_restart

  let commit tx =
    (* Deferred locking: the expanding phase ends here. *)
    if not P.eager then
      Util.Vec.iter
        (fun (R e) -> if not (acquire_write_lock tx e.tv) then raise Restart)
        tx.redo;
    (* Chaos: delay-only site — all write locks are held and the install
       below must run to completion (there is no undo log to recover a
       partial write-back); [Chaos.point] never raises by contract. *)
    if !Chaos.on then Chaos.point Chaos.Mid_writeback;
    (* Install buffered writes while every lock is held. *)
    Util.Vec.iter (fun (R e) -> e.tv.v <- e.nv) tx.redo;
    release_locks tx;
    Rwl_sf.clear_announcement tx.tbl tx.ctx;
    Stm_intf.Stats.commit stats ~tid:tx.ctx.tid

  let abort_cleanup tx =
    (* No rollback needed: memory was never written.  Just drop locks. *)
    release_locks tx

  let irrevocable_priority = 1

  let finish_escalation t tx =
    if tx.escalated then begin
      tx.escalated <- false;
      Rwl_sf.zero_mutex_unlock t
    end

  let run tx f =
    tx.restarts <- 0;
    tx.ctx.deadline_ns <- Cm.begin_txn tx.ov;
    let t = tx.tbl in
    let telemetry = !Obs.Telemetry.on in
    let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
    let commit_t0 = ref 0 in
    let rec attempt att_t0 =
      begin_attempt tx;
      tx.depth <- 1;
      match
        let v = f tx in
        tx.depth <- 0;
        if !Chaos.on then Chaos.point Chaos.Pre_commit;
        (* Commit-phase start: commit-time locking (deferred mode),
           write-back and release are all attributed to [Commit]. *)
        if telemetry then commit_t0 := Obs.Telemetry.now_ns ();
        commit tx;
        v
      with
      | v ->
          finish_escalation t tx;
          tx.finished_restarts <- tx.restarts;
          if telemetry then
            Obs.Scope.txn_commit obs ~tid:tx.ctx.tid ~txn_t0_ns:txn_t0
              ~att_t0_ns:att_t0 ~commit_t0_ns:!commit_t0 ();
          v
      | exception Restart ->
          tx.depth <- 0;
          abort_cleanup tx;
          Stm_intf.Stats.abort stats ~tid:tx.ctx.tid;
          if telemetry then begin
            let aborter, lock =
              match tx.abort_reason with
              | Obs.Events.User_restart -> (-1, -1)
              | _ -> (tx.ctx.o_tid, tx.ctx.o_lock)
            in
            Obs.Scope.txn_abort obs ~aborter ~lock ~tid:tx.ctx.tid
              ~att_t0_ns:att_t0 tx.abort_reason
          end;
          tx.restarts <- tx.restarts + 1;
          if tx.escalated then begin
            (* Serial slow path: only a chaos-injected spurious failure
               can abort us; retry unconditionally. *)
            Rwl_sf.wait_for_conflictor t tx.ctx;
            attempt
              (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
               else 0)
          end
          else begin
            match
              Cm.after_abort ~stm:name ~tid:tx.ctx.tid ~restarts:tx.restarts
                ~st:tx.ov
                ~native_wait:(fun () -> Rwl_sf.wait_for_conflictor t tx.ctx)
                ~cleanup:(fun () -> Rwl_sf.clear_announcement t tx.ctx)
                ~reasons:(fun () ->
                  if telemetry then Obs.Scope.abort_counts obs else [])
            with
            | Cm.Retry ->
                tx.ctx.deadline_ns <- tx.ov.Cm.deadline;
                attempt
                  (if telemetry then Obs.Scope.retry_start obs ~tid:tx.ctx.tid
                   else 0)
            | Cm.Escalate ->
                Rwl_sf.clear_announcement t tx.ctx;
                Rwl_sf.zero_mutex_lock t;
                Rwl_sf.announce_priority t tx.ctx irrevocable_priority;
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
          abort_cleanup tx;
          Rwl_sf.clear_announcement t tx.ctx;
          finish_escalation t tx;
          raise e
    in
    attempt txn_t0

  let atomic ?read_only f =
    ignore read_only;
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

  let commits () = Stm_intf.Stats.commits stats
  let aborts () = Stm_intf.Stats.aborts stats
  let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

  let reset_stats () =
    Stm_intf.Stats.reset stats;
    Rwl_sf.reset_clock_increments (Util.Once.get table);
    Obs.Scope.reset obs

  let last_restarts () = (get_tx ()).finished_restarts
  let leaked_locks () =
    if !configured then Rwl_sf.leaked (Util.Once.get table) else 0
end
