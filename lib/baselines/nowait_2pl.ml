module Make (L : Rwlock.Trylock_rw.S) () = struct
  let name = L.name

  module Obs = Twoplsf_obs

  open Tvar (* brings the { id; v } field labels into scope *)

  type 'a tvar = 'a Tvar.t

  let tvar = Tvar.make

  type tx = {
    tid : int;
    rset : int Util.Vec.t; (* read-locked lock indices *)
    wlocks : int Util.Vec.t; (* write-locked lock indices *)
    undo : Wset.t;
    lp : Txn_loop.t;
  }

  let requested_num_locks = ref 65536
  let built = ref false
  let built_num_locks = ref 0

  let locks =
    Util.Once.create (fun () ->
        built := true;
        built_num_locks := !requested_num_locks;
        L.create ~num_locks:!requested_num_locks)

  let configure ?(num_locks = 65536) () =
    if !built then failwith (name ^ ".configure: lock table already built");
    requested_num_locks := num_locks

  let stats = Stm_intf.Stats.create ()
  let obs = Obs.Scope.create name

  let tx_key =
    Domain.DLS.new_key (fun () ->
        let tid = Util.Tid.get () in
        {
          tid;
          rset = Util.Vec.create ~dummy:(-1) ();
          wlocks = Util.Vec.create ~dummy:(-1) ();
          undo = Wset.create ();
          lp = Txn_loop.make ~tid;
        })

  let get_tx () = Domain.DLS.get tx_key

  (* No-wait: any lock conflict aborts at once.  The lock signature does
     not name the holder, so the aborter side is unknown. *)
  let conflict tx reason w = Txn_loop.restart tx.lp reason ~aborter:(-1) ~lock:w

  let read tx (tv : 'a tvar) : 'a =
    let l = Util.Once.get locks in
    let w = L.lock_index l tv.id in
    if L.holds_write l ~tid:tx.tid w || L.holds_read l ~tid:tx.tid w then tv.v
    else if L.try_read_lock l ~tid:tx.tid w then begin
      Util.Vec.push tx.rset w;
      tv.v
    end
    else conflict tx Obs.Events.Read_lock_conflict w

  let write tx tv nv =
    let l = Util.Once.get locks in
    let w = L.lock_index l tv.id in
    let held = L.holds_write l ~tid:tx.tid w in
    if held || L.try_write_lock l ~tid:tx.tid w then begin
      if not held then Util.Vec.push tx.wlocks w;
      Wset.log_old_once tx.undo tv tv.v;
      tv.v <- nv
    end
    else conflict tx Obs.Events.Write_lock_conflict w

  let release tx =
    let l = Util.Once.get locks in
    Util.Vec.iter (fun w -> L.write_unlock l ~tid:tx.tid w) tx.wlocks;
    Util.Vec.iter (fun w -> L.read_unlock l ~tid:tx.tid w) tx.rset

  let rollback tx =
    Wset.rollback tx.undo;
    release tx

  (* Reads always lock, as in every 2PL: [read_only] changes nothing. *)
  let begin_attempt tx ~read_only:_ =
    Util.Vec.clear tx.rset;
    Util.Vec.clear tx.wlocks;
    Wset.clear tx.undo

  include Txn_loop.Make (struct
    type nonrec tx = tx

    let name = name
    let obs = obs
    let stats = stats
    let get_tx = get_tx
    let loop tx = tx.lp
    let begin_attempt = begin_attempt
    let commit = release (* writes are already in place *)
    let rollback = rollback

    include Txn_loop.Backoff_hooks
  end)

  let clock_ops () = 0 (* no central clock in the no-wait family *)

  (* The lock signature exposes no raw state, so the sweep asks every
     (lock, tid) pair whether it is held.  O(num_locks * max_threads):
     fine for a post-run quiescent check, not for hot paths. *)
  let leaked_locks () =
    if not !built then 0
    else begin
      let l = Util.Once.get locks in
      let n = ref 0 in
      for w = 0 to !built_num_locks - 1 do
        let held = ref false in
        for tid = 0 to Util.Tid.max_threads - 1 do
          if L.holds_write l ~tid w || L.holds_read l ~tid w then held := true
        done;
        if !held then incr n
      done;
      !n
    end
end
