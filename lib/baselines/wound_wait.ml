open Tvar (* brings the { id; v } field labels into scope *)

let name = "2PL-WoundWait"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos

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
  lp : Txn_loop.t;
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
      let tid = Util.Tid.get () in
      {
        ctx =
          {
            tid;
            my_ts = 0;
            deadline_ns = 0;
            deadline_hit = false;
            o_tid = -1;
            o_lock = -1;
          };
        rset = Util.Vec.create ~dummy:(-1) ();
        wlocks = Util.Vec.create ~dummy:(-1) ();
        undo = Wset.create ();
        lp = Txn_loop.make ~tid;
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

(* One wait step.  Under the cooperative scheduler ([Chaos.hook] set)
   the next iteration's sync point already hands the CPU over, and a
   sleep would only stretch the search's wall time: the backoff's clock
   keeps running while the scheduler has the worker parked. *)
let pause b = match !Chaos.hook with None -> Util.Backoff.once b | Some _ -> ()

(* Older (lower-ts) requesters wound the conflicting owner(s) and wait;
   younger ones just wait.  A wounded transaction notices at its next
   acquisition attempt and restarts.

   [acquire_read]/[acquire_write] first try once with no wait state, so
   an uncontended acquisition allocates nothing; a failed try leaves
   nothing held that the wait loop would not also handle.  Under chaos
   the loop runs from its first step, so its sync points are those of a
   plain loop. *)
let read_wait t ctx w =
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
        pause b;
        loop ()
      end
    end
  in
  loop ()

let acquire_read t ctx w =
  (not !Chaos.on)
  && (not (am_wounded t ctx))
  && (not (deadline_blown ctx))
  && begin
       Rwlock.Read_indicator.arrive t.ri ~tid:ctx.tid w;
       let ws = Atomic.get t.wlocks.(w) in
       ws = 0 || ws = ctx.tid + 1
       || begin
            Rwlock.Read_indicator.depart t.ri ~tid:ctx.tid w;
            false
          end
     end
  || read_wait t ctx w

let write_wait t ctx w =
  let me = ctx.tid + 1 in
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
          pause b;
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
        pause b;
        loop ()
      end
    end
  in
  loop ()

let acquire_write t ctx w =
  let me = ctx.tid + 1 in
  Atomic.get t.wlocks.(w) = me
  || (not !Chaos.on)
     && (not (am_wounded t ctx))
     && (not (deadline_blown ctx))
     && Atomic.get t.wlocks.(w) = 0
     && Atomic.compare_and_set t.wlocks.(w) 0 me
     && Rwlock.Read_indicator.is_empty t.ri ~self:ctx.tid w
  || write_wait t ctx w

(* A failed acquisition: wounded by an older transaction, or out of
   deadline. *)
let wounded tx =
  Txn_loop.restart tx.lp
    (if tx.ctx.deadline_hit then Obs.Events.Deadline
     else Obs.Events.Priority_preemption)
    ~aborter:tx.ctx.o_tid ~lock:tx.ctx.o_lock

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
  else wounded tx

let write tx tv nv =
  let t = Util.Once.get table in
  let w = tv.id land t.mask in
  let held = Atomic.get t.wlocks.(w) = tx.ctx.tid + 1 in
  if held || acquire_write t tx.ctx w then begin
    if not held then Util.Vec.push tx.wlocks w;
    Wset.log_old_once tx.undo tv tv.v;
    tv.v <- nv
  end
  else wounded tx

(* Loops rather than [Vec.iter]: a closure over [t] and [tx] would be
   allocated at every commit. *)
let release tx =
  let t = Util.Once.get table in
  let me = tx.ctx.tid + 1 in
  for i = 0 to Util.Vec.length tx.wlocks - 1 do
    let w = Util.Vec.get tx.wlocks i in
    if Atomic.get t.wlocks.(w) = me then Atomic.set t.wlocks.(w) 0
  done;
  for i = 0 to Util.Vec.length tx.rset - 1 do
    Rwlock.Read_indicator.depart t.ri ~tid:tx.ctx.tid (Util.Vec.get tx.rset i)
  done

let rollback tx =
  Wset.rollback tx.undo;
  release tx

let begin_attempt tx ~read_only:_ =
  let t = Util.Once.get table in
  Util.Vec.clear tx.rset;
  Util.Vec.clear tx.wlocks;
  Wset.clear tx.undo;
  Atomic.set t.wounded.(tx.ctx.tid) 0;
  tx.ctx.o_tid <- -1;
  tx.ctx.o_lock <- -1;
  if tx.ctx.my_ts = 0 then begin
    tx.ctx.my_ts <- Atomic.fetch_and_add t.clock 1;
    Stm_intf.Stats.clock_op stats ~tid:tx.ctx.tid;
    Atomic.set t.announce.(tx.ctx.tid) tx.ctx.my_ts
  end

(* Retire the timestamp: at commit, and before a typed exception escapes
   so younger transactions stop wounding themselves against it.  A
   restart keeps it: the restarted transaction ages toward oldest, which
   is the starvation-freedom argument. *)
let finish tx =
  let t = Util.Once.get table in
  tx.ctx.my_ts <- 0;
  Atomic.set t.announce.(tx.ctx.tid) 0;
  Atomic.set t.wounded.(tx.ctx.tid) 0

include Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let obs = obs
  let stats = stats
  let get_tx = get_tx
  let loop tx = tx.lp
  let begin_attempt = begin_attempt

  (* A wound that arrives after the last acquisition is too late: the
     transaction has all its locks and commits (standard wound-wait:
     finished transactions are not aborted). *)
  let commit tx =
    release tx;
    finish tx

  let rollback = rollback

  (* Wound-wait's native inter-attempt wait is "none". *)
  let native_wait _ ~attempt:_ = ()
  let retire = finish

  let set_deadline tx d =
    tx.ctx.deadline_ns <- d;
    tx.ctx.deadline_hit <- false
end)

let clock_ops () = Stm_intf.Stats.clock_ops stats

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
