module Rwl_sf = Twoplsf.Rwl_sf
module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos
module Wal = Twoplsf_wal.Wal

let name = "2PLSF"

(* Registered under a "DBx-" prefix so it does not collide with the STM's
   "2PLSF" scope; Runner looks it up as "DBx-" ^ name. *)
let obs = Obs.Scope.create "DBx-2PLSF"

type worker = {
  ctx : Rwl_sf.ctx; (* also holds the read set *)
  mutable rids : int array; (* the resolve pass's row ids, by access *)
  wlocks : int Util.Vec.t;
  undo : Undo.t;
  mutable abort_reason : Obs.Events.abort_reason;
}

type t = {
  table : Table.t;
  locks : Rwl_sf.t;
  workers : worker Per_worker.t;
  mutable wal : Wal.t option;  (* durability hook; None = in-memory only *)
  degraded : string option Atomic.t;
      (* once set, the engine is read-only: writes raise
         [Stm_intf.Degraded_read_only], reads keep serving (§16) *)
  m_readonly_rejects : int Atomic.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 32

let create table =
  let locks = Rwl_sf.create ~num_locks:(next_pow2 (Table.num_rows table)) () in
  Rwl_sf.set_obs locks obs;
  {
    table;
    locks;
    workers =
      Per_worker.create (fun tid ->
          {
            ctx = Rwl_sf.make_ctx ~tid;
            rids = Array.make Ycsb.accesses_per_txn 0;
            wlocks = Util.Vec.create ~dummy:(-1) ();
            undo = Undo.create ();
            abort_reason = Obs.Events.User_restart;
          });
    wal = None;
    degraded = Atomic.make None;
    m_readonly_rejects = Atomic.make 0;
  }

let workers t = t.workers
let leaked_locks t = Rwl_sf.leaked t.locks
let set_wal t w = t.wal <- w
let wal t = t.wal
let degraded_reason t = Atomic.get t.degraded
let readonly_rejects t = Atomic.get t.m_readonly_rejects

let enter_degraded t reason =
  ignore (Atomic.compare_and_set t.degraded None (Some reason))

let readonly_fail t reason =
  Atomic.incr t.m_readonly_rejects;
  raise (Stm_intf.Degraded_read_only { engine = "DBx-2PLSF"; reason })

let release t p =
  for i = 0 to Util.Vec.length p.wlocks - 1 do
    Rwl_sf.write_unlock t.locks p.ctx (Util.Vec.get p.wlocks i)
  done;
  Rwl_sf.read_unlock_all t.locks p.ctx

let rollback t p =
  Undo.restore p.undo t.table;
  (* Close every row's checkpoint seqlock window only after the whole
     pre-image is back in place (a duplicate rid's mark is already even
     after the first pass — [mark_undo] is parity-guarded). *)
  (match t.wal with
  | Some w ->
      for i = 0 to Undo.length p.undo - 1 do
        Wal.mark_undo w ~rid:(Undo.rid p.undo i)
      done
  | None -> ());
  release t p

(* The durability wait, after the locks are gone.  A top-level function,
   so the untraced commit builds no closure. *)
let await_durable t p w ~lsn =
  match Wal.wait_durable w ~lsn with
  | () -> ()
  | exception Wal.Degraded reason ->
      (* Locks are gone and the in-memory effect stands, but the record
         never reached disk: the commit must NOT be acknowledged.  Flip
         read-only and report the failure to the caller — this is the
         one divergence between memory and log that recovery resolves by
         dropping the unacked suffix. *)
      p.abort_reason <- Obs.Events.Wal_degraded;
      enter_degraded t reason;
      readonly_fail t reason

(* Commit finalization under the full write-lock set.  With a WAL
   attached and at least one write, the commit window is where the LSN
   is drawn ([Wal.log_commit] under the locks aligns LSN order with the
   serialization order) — the durability *wait* happens after release,
   so holding the locks never spans an fsync. *)
let commit_locked t p =
  match t.wal with
  | Some w when not (Undo.is_empty p.undo) -> begin
      if !Chaos.on then Chaos.point Chaos.Commit_durable_pre;
      match
        Wal.log_commit w ~tid:p.ctx.tid ~n:(Undo.length p.undo)
          ~rid:(Undo.rid p.undo)
      with
      | exception Wal.Degraded reason ->
          (* The log refused before drawing an LSN: locks are still held
             and the undo images intact, so the transaction rolls back
             cleanly and the engine flips read-only. *)
          p.abort_reason <- Obs.Events.Wal_degraded;
          enter_degraded t reason;
          rollback t p;
          Rwl_sf.clear_announcement t.locks p.ctx;
          readonly_fail t reason
      | lsn -> (
          if !Chaos.on then Chaos.point Chaos.Commit_durable_mid;
          release t p;
          Rwl_sf.clear_announcement t.locks p.ctx;
          if !Chaos.on then Chaos.point Chaos.Commit_durable_post;
          if !Obs.Telemetry.on then begin
            let t0 = Obs.Telemetry.now_ns () in
            Fun.protect
              ~finally:(fun () -> Obs.Scope.fsync_wait obs ~tid:p.ctx.tid ~t0_ns:t0)
              (fun () -> await_durable t p w ~lsn)
          end
          else await_durable t p w ~lsn)
    end
  | _ ->
      release t p;
      Rwl_sf.clear_announcement t.locks p.ctx

(* The resolve pass (DESIGN.md §3, item 9): before the first attempt, probe
   the index once per key and load each row's tuple lines, its write
   word and this worker's read-indicator word, so those cache misses
   overlap one another outside the lock-hold window instead of landing
   one by one behind each acquire.  Every retry reuses [p.rids].  It
   takes no lock, stores nothing shared, visits no chaos point and
   allocates nothing; an unknown key raises [Not_found] here, before any
   lock is held. *)
let resolve t p (txn : Ycsb.txn) =
  let n = Array.length txn.keys in
  if Array.length p.rids < n then p.rids <- Array.make n 0;
  Table.resolve t.table txn.keys p.rids;
  for i = 0 to n - 1 do
    let w = Rwl_sf.lock_index t.locks p.rids.(i) in
    ignore (Sys.opaque_identity (Rwl_sf.holds_write t.locks p.ctx w));
    ignore (Sys.opaque_identity (Rwl_sf.holds_read t.locks p.ctx w))
  done

let attempt t p (txn : Ycsb.txn) =
  Util.Vec.clear p.wlocks;
  Undo.clear p.undo;
  let n = Array.length txn.keys in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let rid = p.rids.(!i) in
    let w = Rwl_sf.lock_index t.locks rid in
    (match txn.ops.(!i) with
    | Ycsb.Read ->
        if Rwl_sf.try_or_wait_read_lock t.locks p.ctx w then ignore (Cc_intf.read_work (Table.payload t.table rid))
        else begin
          p.abort_reason <- Obs.Events.Read_lock_conflict;
          ok := false
        end
    | Ycsb.Write ->
        let held = Rwl_sf.holds_write t.locks p.ctx w in
        if held || Rwl_sf.try_or_wait_write_lock t.locks p.ctx w then begin
          if not held then Util.Vec.push p.wlocks w;
          Undo.save p.undo t.table rid;
          (match t.wal with Some w -> Wal.mark_dirty w ~rid | None -> ());
          Cc_intf.write_work (Table.payload t.table rid)
        end
        else begin
          p.abort_reason <-
            (if p.ctx.preempted then Obs.Events.Priority_preemption
             else Obs.Events.Write_lock_conflict);
          ok := false
        end);
    incr i
  done;
  if !ok then begin
    commit_locked t p;
    true
  end
  else begin
    rollback t p;
    false
  end

let execute t ~tid txn =
  (* Read-only degradation gate: refuse write transactions before any
     lock is taken; pure reads keep serving on a degraded engine. *)
  (match Atomic.get t.degraded with
  | Some reason when Array.exists (fun o -> o = Ycsb.Write) txn.Ycsb.ops ->
      readonly_fail t reason
  | _ -> ());
  let p = Per_worker.get t.workers tid in
  let aborts = ref 0 in
  let telemetry = !Obs.Telemetry.on in
  let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  resolve t p txn;
  if not telemetry then begin
    while not (attempt t p txn) do
      incr aborts;
      Rwl_sf.wait_for_conflictor t.locks p.ctx
    done;
    !aborts
  end
  else begin
    let att_t0 = ref txn_t0 in
    while
      not
        (let ok =
           try attempt t p txn
           with Stm_intf.Degraded_read_only _ as e ->
             (* terminal abort: count it before the raise escapes *)
             Obs.Scope.txn_abort obs ~tid ~att_t0_ns:!att_t0 p.abort_reason;
             raise e
         in
         if not ok then
           Obs.Scope.txn_abort obs ~tid ~att_t0_ns:!att_t0 p.abort_reason;
         ok)
    do
      incr aborts;
      Rwl_sf.wait_for_conflictor t.locks p.ctx;
      att_t0 := Obs.Scope.retry_start obs ~tid
    done;
    Obs.Scope.txn_commit obs ~tid ~txn_t0_ns:txn_t0 ~att_t0_ns:!att_t0 ();
    !aborts
  end

(* Conserved-transfer transaction for the crash soak (DESIGN.md §15):
   move [amount] from one row's balance to another's under the same
   lock/undo/commit machinery as the YCSB path, so the WAL hooks cover
   it identically and the row-balance sum is a recovery invariant. *)

let transfer_write t p rid =
  let w = Rwl_sf.lock_index t.locks rid in
  let held = Rwl_sf.holds_write t.locks p.ctx w in
  if held || Rwl_sf.try_or_wait_write_lock t.locks p.ctx w then begin
    if not held then Util.Vec.push p.wlocks w;
    Undo.save p.undo t.table rid;
    (match t.wal with Some wal -> Wal.mark_dirty wal ~rid | None -> ());
    true
  end
  else begin
    p.abort_reason <-
      (if p.ctx.preempted then Obs.Events.Priority_preemption
       else Obs.Events.Write_lock_conflict);
    false
  end

let attempt_transfer t p ~src_rid ~dst_rid ~amount =
  Util.Vec.clear p.wlocks;
  Undo.clear p.undo;
  if
    transfer_write t p src_rid
    && (src_rid = dst_rid || transfer_write t p dst_rid)
  then begin
    Table.set_balance t.table src_rid (Table.balance t.table src_rid - amount);
    Table.set_balance t.table dst_rid (Table.balance t.table dst_rid + amount);
    commit_locked t p;
    true
  end
  else begin
    rollback t p;
    false
  end

let execute_transfer t ~tid ~src ~dst ~amount =
  (match Atomic.get t.degraded with
  | Some reason -> readonly_fail t reason
  | None -> ());
  let p = Per_worker.get t.workers tid in
  let src_rid = Table.lookup t.table src and dst_rid = Table.lookup t.table dst in
  let aborts = ref 0 in
  if not !Obs.Telemetry.on then begin
    while not (attempt_transfer t p ~src_rid ~dst_rid ~amount) do
      incr aborts;
      Rwl_sf.wait_for_conflictor t.locks p.ctx
    done;
    !aborts
  end
  else begin
    let txn_t0 = Obs.Telemetry.now_ns () in
    let att_t0 = ref txn_t0 in
    while
      not
        (let ok =
           try attempt_transfer t p ~src_rid ~dst_rid ~amount
           with Stm_intf.Degraded_read_only _ as e ->
             Obs.Scope.txn_abort obs ~tid ~att_t0_ns:!att_t0 p.abort_reason;
             raise e
         in
         if not ok then
           Obs.Scope.txn_abort obs ~tid ~att_t0_ns:!att_t0 p.abort_reason;
         ok)
    do
      incr aborts;
      Rwl_sf.wait_for_conflictor t.locks p.ctx;
      att_t0 := Obs.Scope.retry_start obs ~tid
    done;
    Obs.Scope.txn_commit obs ~tid ~txn_t0_ns:txn_t0 ~att_t0_ns:!att_t0 ();
    !aborts
  end

(* The table as a WAL store: rows are the live payload bytes, so the
   commit record's after-images need no extra copy. *)
let wal_store table =
  {
    Wal.table_id = 0;
    num_rows = Table.num_rows table;
    row_len = Table.tuple_size;
    read_row = (fun rid -> Table.payload table rid);
    write_row =
      (fun rid b -> Bytes.blit b 0 (Table.payload table rid) 0 Table.tuple_size);
  }
