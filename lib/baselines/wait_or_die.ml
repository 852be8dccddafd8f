module Rwl_sf = Twoplsf.Rwl_sf

let name = "2PL-WaitDie"

module Obs = Twoplsf_obs

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  tbl : Rwl_sf.t; (* the lock table, resolved once per thread *)
  ctx : Rwl_sf.ctx; (* also holds the read set *)
  wlocks : int Util.Vec.t;
  undo : Wset.t;
  lp : Txn_loop.t;
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
        lp = Txn_loop.make ~tid;
      })

let get_tx () = Domain.DLS.get tx_key

(* The shared Rwl_sf slow path pins the conflicting lock and owner in the
   ctx, exactly as for 2PLSF proper. *)
let conflict tx reason =
  Txn_loop.restart tx.lp reason ~aborter:tx.ctx.Rwl_sf.o_tid
    ~lock:tx.ctx.Rwl_sf.o_lock

let read tx (tv : 'a tvar) : 'a =
  let t = tx.tbl in
  if Rwl_sf.try_or_wait_read_lock t tx.ctx (Rwl_sf.lock_index t tv.id) then
    tv.v
  else
    conflict tx
      (if tx.ctx.Rwl_sf.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Read_lock_conflict)

let write tx tv nv =
  let t = tx.tbl in
  let w = Rwl_sf.lock_index t tv.id in
  let held = Rwl_sf.holds_write t tx.ctx w in
  if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
    if not held then Util.Vec.push tx.wlocks w;
    Wset.log_old_once tx.undo tv tv.v;
    tv.v <- nv
  end
  else
    conflict tx
      (if tx.ctx.Rwl_sf.deadline_hit then Obs.Events.Deadline
       else if tx.ctx.Rwl_sf.preempted then Obs.Events.Priority_preemption
       else Obs.Events.Write_lock_conflict)

let release tx =
  Util.Vec.iter (fun w -> Rwl_sf.write_unlock tx.tbl tx.ctx w) tx.wlocks;
  Rwl_sf.read_unlock_all tx.tbl tx.ctx

let rollback tx =
  Wset.rollback tx.undo;
  release tx

(* After dying, wait until no in-flight transaction has a lower timestamp
   — even non-conflicting ones (the wait-or-die behaviour §2.1 contrasts
   with 2PLSF's wait-for-the-specific-conflictor). *)
let wait_for_all_lower tx ~attempt:_ =
  let t = tx.tbl in
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

let begin_attempt tx ~read_only:_ =
  Util.Vec.clear tx.wlocks;
  Wset.clear tx.undo;
  (* The wait-or-die signature: a timestamp on *every* transaction (kept
     across restarts so progress is guaranteed). *)
  Rwl_sf.take_timestamp tx.tbl tx.ctx

(* Drop the announced timestamp: at commit, and before a typed exception
   escapes so no surviving transaction keeps deferring to a dead one. *)
let retire tx = Rwl_sf.clear_announcement tx.tbl tx.ctx

include Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let obs = obs
  let stats = stats
  let get_tx = get_tx
  let loop tx = tx.lp
  let begin_attempt = begin_attempt

  let commit tx =
    release tx;
    retire tx

  let rollback = rollback

  (* After dying, and on the serial slow path too, where the kept (now
     oldest-aging) timestamp plus the fallback mutex guarantee eventual
     commit. *)
  let native_wait = wait_for_all_lower
  let retire = retire

  let set_deadline tx d =
    tx.ctx.Rwl_sf.deadline_ns <- d;
    tx.ctx.Rwl_sf.deadline_hit <- false
end)

let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

let reset_stats () =
  reset_stats ();
  Rwl_sf.reset_clock_increments (Util.Once.get table)

let leaked_locks () =
  if !built then Rwl_sf.leaked (Util.Once.get table) else 0
