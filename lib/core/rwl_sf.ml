(* The starvation-free reader-writer lock (paper Algorithms 2 and 3).

   Lock word encoding: 0 = UNLOCKED, otherwise (holder tid + 1).
   Announced timestamp 0 = NO_TIMESTAMP, compared as +infinity (a
   never-conflicted transaction has lowest priority; see mli).

   Divergence from the pseudocode, both deliberate:
   - [try_or_wait_write_lock] returns true immediately when the caller
     already holds the write lock.  In the pseudocode a re-entrant writer
     can be wounded at line 96 and then releases the lock at line 101
     *before* its undo-log rollback runs, letting another writer acquire
     the lock while stale rollback stores are still pending.  The fast
     path removes that window; rollback always happens before release.
   - getTSOfWLock/getLowestTS initialize their fold with +infinity rather
     than NO_TIMESTAMP = 0 (with 0 the pseudocode's [oTS < lowestTS] can
     never fire).
   - [try_or_wait_read_lock] is re-entrant too: a bit already set returns
     true before the write word is looked at, so a reader whose lock a
     waiting writer has taken does not restart on its own re-read. *)

module Read_indicator = Rwlock.Read_indicator
module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos

let infinity_ts = max_int

type t = {
  mask : int;
  nlocks : int;
  wlocks : int Atomic.t array;
  ri : Read_indicator.t;
  conflict_clock : int Atomic.t;
  announce : int Atomic.t array;
  zero_mutex : bool Atomic.t;
  clock_count : int Atomic.t array; (* per-tid count of conflict-clock draws *)
  mutable obs : Obs.Scope.t option; (* set once at start-up, before domains *)
  mutable watch_id : int; (* Waitsfor table id, or -1 when not watched *)
}

type ctx = {
  tid : int;
  rs : Read_indicator.read_set;
  mutable my_ts : int;
  mutable o_tid : int;
  mutable o_ts : int;
  mutable o_lock : int;
  mutable preempted : bool;
  mutable deadline_ns : int;
  mutable deadline_hit : bool;
}

let create ?(num_locks = 65536) () =
  if num_locks land (num_locks - 1) <> 0 || num_locks < 32 then
    invalid_arg "Rwl_sf.create: num_locks must be a power of two >= 32";
  {
    mask = num_locks - 1;
    nlocks = num_locks;
    wlocks = Array.init num_locks (fun _ -> Atomic.make 0);
    ri = Read_indicator.create ~num_locks;
    conflict_clock = Atomic.make 2 (* 1 is the irrevocable priority *);
    announce = Array.init Util.Tid.max_threads (fun _ -> Atomic.make 0);
    zero_mutex = Atomic.make false;
    clock_count = Array.init Util.Tid.max_threads (fun _ -> Atomic.make 0);
    obs = None;
    watch_id = -1;
  }

let clock_value t = Atomic.get t.conflict_clock

(* Racy read-only view of one lock for the watchdog: the current write
   holder, its announced timestamp and the read-indicator population may
   each belong to slightly different moments — sound for detection because
   the watchdog debounces everything across ticks (DESIGN.md §9). *)
let inspect t w : Obs.Waitsfor.lock_view =
  let ws = Atomic.get t.wlocks.(w) in
  let writer = ws - 1 in
  let writer_ts = if ws = 0 then 0 else Atomic.get t.announce.(writer) in
  let readers = ref [] in
  Read_indicator.iter_readers t.ri ~self:(-1) w (fun tid ->
      readers := tid :: !readers);
  {
    Obs.Waitsfor.writer = (if ws = 0 then -1 else writer);
    writer_ts;
    readers = !readers;
  }

let watch ?name t =
  if t.watch_id < 0 then
    let name =
      match (name, t.obs) with
      | Some n, _ -> n
      | None, Some sc -> Obs.Scope.name sc
      | None, None -> "rwl_sf"
    in
    t.watch_id <-
      Obs.Waitsfor.register_table ~name ~num_locks:t.nlocks
        ~inspect:(inspect t)
        ~announced:(fun tid -> Atomic.get t.announce.(tid))
        ~clock:(fun () -> clock_value t)

let set_obs t sc =
  t.obs <- Some sc;
  (* Register for watchdog introspection only when publication is already
     enabled: registered tables are retained for the process lifetime, and
     short-lived tables (one per DBx run) should not pile up in a run that
     never watches them. *)
  if !Obs.Wait_registry.on then watch t
let make_ctx ~tid =
  {
    tid;
    rs = Read_indicator.read_set ();
    my_ts = 0;
    o_tid = -1;
    o_ts = 0;
    o_lock = -1;
    preempted = false;
    deadline_ns = 0;
    deadline_hit = false;
  }

(* Overload protection (DESIGN.md §11): a transaction's absolute deadline,
   installed by the STM at attempt start.  0 = no deadline, so the
   disabled-path cost in every wait loop is one load + predicted branch. *)
let deadline_blown ctx =
  ctx.deadline_ns <> 0 && Obs.Telemetry.now_ns () > ctx.deadline_ns
let num_locks t = t.nlocks
let lock_index t id = id land t.mask
let announced t tid = Atomic.get t.announce.(tid)

let effective_ts raw = if raw = 0 then infinity_ts else raw

let take_timestamp t ctx =
  if ctx.my_ts = 0 then begin
    ctx.my_ts <- Atomic.fetch_and_add t.conflict_clock 1;
    Atomic.incr t.clock_count.(ctx.tid);
    (* Chaos: widen the window in which a drawn timestamp is not yet
       announced (others still read us as +infinity priority). *)
    if !Chaos.on then Chaos.point Chaos.Clock_announce;
    Atomic.set t.announce.(ctx.tid) ctx.my_ts;
    if !Obs.Telemetry.on then
      match t.obs with
      | Some sc -> Obs.Scope.event sc ~tid:ctx.tid Obs.Events.Priority_announced
      | None -> ()
  end

let announce_priority t ctx ts =
  ctx.my_ts <- ts;
  Atomic.set t.announce.(ctx.tid) ts

(* [take_timestamp] and [announce_priority] set [my_ts] before the slot,
   so a non-zero slot implies [my_ts <> 0]: a transaction that never
   announced skips the store into the slot, whose cache line it shares
   with other threads' slots. *)
let clear_announcement t ctx =
  let announced = ctx.my_ts <> 0 in
  ctx.my_ts <- 0;
  ctx.o_tid <- -1;
  ctx.o_ts <- 0;
  ctx.o_lock <- -1;
  if announced then Atomic.set t.announce.(ctx.tid) 0

(* Effective timestamp of the current write-lock holder (+inf if the lock
   is free, held by us, or the holder never conflicted).  Records the
   holder in [ctx.o_tid] when it is a real candidate. *)
let ts_of_wlock t ctx w =
  let ws = Atomic.get t.wlocks.(w) in
  if ws = 0 || ws = ctx.tid + 1 then infinity_ts
  else begin
    let otid = ws - 1 in
    let ts = effective_ts (Atomic.get t.announce.(otid)) in
    if ts < infinity_ts then begin
      ctx.o_tid <- otid;
      ctx.o_ts <- ts;
      ctx.o_lock <- w
    end;
    ts
  end

(* Lowest effective timestamp among the write-lock holder and all readers
   (Algorithm 3, getLowestTS), recording the owning thread in ctx. *)
let lowest_ts t ctx w =
  let lowest = ref (ts_of_wlock t ctx w) in
  Read_indicator.iter_readers t.ri ~self:ctx.tid w (fun itid ->
      let ts = effective_ts (Atomic.get t.announce.(itid)) in
      if ts < !lowest then begin
        lowest := ts;
        ctx.o_tid <- itid;
        ctx.o_ts <- ts;
        ctx.o_lock <- w
      end);
  !lowest

let my_effective_ts ctx = effective_ts ctx.my_ts

(* A forced (injected) acquisition failure must present itself as a
   conflict with an *unknown* conflictor: [ctx.o_tid] may still name a
   thread recorded during an earlier, successful wait whose timestamp is
   higher than ours.  Waiting on it from the restart path would invert
   the priority order that makes waits-for cycles impossible. *)
let spurious_fail ctx =
  ctx.o_tid <- -1;
  ctx.o_ts <- 0;
  ctx.o_lock <- -1;
  ctx.preempted <- false;
  false

let holds_read t ctx w = Read_indicator.holds t.ri ~tid:ctx.tid w
let holds_write t ctx w = Atomic.get t.wlocks.(w) = ctx.tid + 1

(* The read wait loop (Algorithm 2, lines 56-68): this thread's bit for
   [w] is set and a foreign writer holds [w]. *)
let read_lock_wait t ctx w =
  let t0 = if !Obs.Telemetry.on then Obs.Telemetry.now_ns () else 0 in
  take_timestamp t ctx;
  let watch = !Obs.Wait_registry.on && t.watch_id >= 0 in
  if watch then
    Obs.Wait_registry.publish ~tid:ctx.tid ~kind:Obs.Wait_registry.read_wait
      ~table:t.watch_id ~lock:w ~since_ns:(Obs.Telemetry.now_ns ())
      ~observed:(-1);
  let b = Util.Backoff.create () in
  let spins = ref 0 in
  let finish acquired =
    if watch then Obs.Wait_registry.clear ~tid:ctx.tid;
    (if !Obs.Telemetry.on then
       match t.obs with
       | Some sc ->
           Obs.Scope.lock_wait sc ~lock:w ~tid:ctx.tid ~write:false
             ~t0_ns:t0 ~spins:!spins ~acquired
       | None -> ());
    acquired
  in
  let rec loop () =
    if Atomic.get t.wlocks.(w) = 0 then finish true
    else begin
      let ots = ts_of_wlock t ctx w in
      if watch && ctx.o_tid >= 0 then
        Obs.Wait_registry.set_observed ~tid:ctx.tid ctx.o_tid;
      if ots < my_effective_ts ctx then begin
        (* A higher-priority writer owns the lock: restart. *)
        Read_indicator.depart t.ri ~tid:ctx.tid w;
        ctx.preempted <- false;
        finish false
      end
      else if deadline_blown ctx then begin
        Read_indicator.depart t.ri ~tid:ctx.tid w;
        ctx.preempted <- false;
        ctx.deadline_hit <- true;
        (* Provenance: pin the deadline abort on the lock we starved on
           (the conflictor, if any, was recorded by ts_of_wlock). *)
        ctx.o_lock <- w;
        finish false
      end
      else begin
        incr spins;
        if !Chaos.on then Chaos.point Chaos.Read_lock_wait;
        Util.Backoff.once b;
        loop ()
      end
    end
  in
  loop ()

(* The read acquire when chaos or telemetry is on.  It keeps the order
   the fast path folds away: probe for a held lock first, so a re-read
   visits no sync point and records no event; then arrive and check,
   with the sync points between them. *)
let read_lock_observed t ctx w =
  if holds_read t ctx w || holds_write t ctx w then true
  else if !Chaos.on && Chaos.spurious Chaos.Read_lock_arrive then
    spurious_fail ctx
  else begin
    if !Chaos.on then Chaos.point Chaos.Read_lock_arrive;
    ignore (Read_indicator.arrive_into t.ri ctx.rs ~tid:ctx.tid w);
    if !Chaos.on then Chaos.point Chaos.Read_lock_check;
    let ws = Atomic.get t.wlocks.(w) in
    if ws = 0 || ws = ctx.tid + 1 then begin
      (if !Obs.Telemetry.on then
         match t.obs with
         | Some sc -> Obs.Scope.event sc ~tid:ctx.tid Obs.Events.Read_lock_fast
         | None -> ());
      true
    end
    else read_lock_wait t ctx w
  end

(* One load of the owner word decides "already held" and feeds the
   arrive; the write word is loaded only after a fresh arrive. *)
let try_or_wait_read_lock t ctx w =
  if !Chaos.on || !Obs.Telemetry.on then read_lock_observed t ctx w
  else
    Read_indicator.arrive_into t.ri ctx.rs ~tid:ctx.tid w
    ||
    let ws = Atomic.get t.wlocks.(w) in
    ws = 0 || ws = ctx.tid + 1 || read_lock_wait t ctx w

let try_or_wait_write_lock t ctx w =
  let me = ctx.tid + 1 in
  let ws = Atomic.get t.wlocks.(w) in
  if ws = me then true
    (* Spurious-failure injection sits after the re-entrancy check: a
       forced failure on a lock we already hold would leave the caller's
       write set inconsistent with the lock word. *)
  else if !Chaos.on && Chaos.spurious Chaos.Write_lock_acquire then
    spurious_fail ctx
  else if
    ws = 0
    && Atomic.compare_and_set t.wlocks.(w) 0 me
    && Read_indicator.is_empty t.ri ~self:ctx.tid w
  then begin
    if !Obs.Telemetry.on then begin
      match t.obs with
      | Some sc -> Obs.Scope.event sc ~tid:ctx.tid Obs.Events.Write_lock_fast
      | None -> ()
    end;
    true
  end
  else begin
    let t0 = if !Obs.Telemetry.on then Obs.Telemetry.now_ns () else 0 in
    take_timestamp t ctx;
    (* Arrive as a reader so concurrent lower-priority writers that win the
       CAS race see a non-empty indicator and defer to our timestamp
       (§2.5: bounds the number of writers that can overtake us). *)
    Read_indicator.arrive t.ri ~tid:ctx.tid w;
    let watch = !Obs.Wait_registry.on && t.watch_id >= 0 in
    if watch then
      Obs.Wait_registry.publish ~tid:ctx.tid
        ~kind:Obs.Wait_registry.write_wait ~table:t.watch_id ~lock:w
        ~since_ns:(Obs.Telemetry.now_ns ()) ~observed:(-1);
    let b = Util.Backoff.create () in
    let spins = ref 0 in
    let finish acquired =
      if watch then Obs.Wait_registry.clear ~tid:ctx.tid;
      (if !Obs.Telemetry.on then
         match t.obs with
         | Some sc ->
             Obs.Scope.lock_wait sc ~lock:w ~tid:ctx.tid ~write:true
               ~t0_ns:t0 ~spins:!spins ~acquired
         | None -> ());
      acquired
    in
    let rec loop () =
      (if Atomic.get t.wlocks.(w) = 0 then
         ignore (Atomic.compare_and_set t.wlocks.(w) 0 me));
      if
        Atomic.get t.wlocks.(w) = me
        && Read_indicator.is_empty t.ri ~self:ctx.tid w
      then begin
        (* Clearing the indicator is fine even if this thread previously
           held the read lock: the lock is now upgraded. *)
        Read_indicator.depart t.ri ~tid:ctx.tid w;
        finish true
      end
      else begin
        let lowest = lowest_ts t ctx w in
        if watch && ctx.o_tid >= 0 then
          Obs.Wait_registry.set_observed ~tid:ctx.tid ctx.o_tid;
        if lowest < my_effective_ts ctx then begin
          let owned = Atomic.get t.wlocks.(w) = me in
          Read_indicator.depart t.ri ~tid:ctx.tid w;
          if owned then Atomic.set t.wlocks.(w) 0;
          (* Losing a lock we already owned is the starvation-freedom
             mechanism preempting us, not a plain failed acquisition. *)
          ctx.preempted <- owned;
          finish false
        end
        else if deadline_blown ctx then begin
          let owned = Atomic.get t.wlocks.(w) = me in
          Read_indicator.depart t.ri ~tid:ctx.tid w;
          if owned then Atomic.set t.wlocks.(w) 0;
          ctx.preempted <- false;
          ctx.deadline_hit <- true;
          ctx.o_lock <- w;
          finish false
        end
        else begin
          incr spins;
          if !Chaos.on then Chaos.point Chaos.Write_lock_wait;
          Util.Backoff.once b;
          loop ()
        end
      end
    in
    loop ()
  end

let read_unlock t ctx w = Read_indicator.depart t.ri ~tid:ctx.tid w
let read_unlock_all t ctx = Read_indicator.depart_all t.ri ctx.rs
let write_unlock t ctx w =
  ignore ctx;
  Atomic.set t.wlocks.(w) 0

let wait_for_conflictor t ctx =
  let otid = ctx.o_tid and ots = ctx.o_ts in
  ctx.o_tid <- -1;
  ctx.o_ts <- 0;
  if otid >= 0 && ots > 0 && ots < infinity_ts then begin
    let t0 = if !Obs.Telemetry.on then Obs.Telemetry.now_ns () else 0 in
    let watch = !Obs.Wait_registry.on && t.watch_id >= 0 in
    if watch then
      Obs.Wait_registry.publish ~tid:ctx.tid
        ~kind:Obs.Wait_registry.conflictor_wait ~table:t.watch_id ~lock:(-1)
        ~since_ns:(Obs.Telemetry.now_ns ()) ~observed:otid;
    let b = Util.Backoff.create () in
    while Atomic.get t.announce.(otid) = ots && not (deadline_blown ctx) do
      if !Chaos.on then Chaos.point Chaos.Conflictor_wait;
      Util.Backoff.once b
    done;
    if watch then Obs.Wait_registry.clear ~tid:ctx.tid;
    if !Obs.Telemetry.on then
      match t.obs with
      | Some sc -> Obs.Scope.conflictor_wait sc ~tid:ctx.tid ~t0_ns:t0
      | None -> ()
  end

let zero_mutex_lock t =
  let b = Util.Backoff.create () in
  while not (Atomic.compare_and_set t.zero_mutex false true) do
    Util.Backoff.once b
  done

let zero_mutex_unlock t = Atomic.set t.zero_mutex false

(* Post-run lock sweep: number of locks still held — write words that are
   non-zero plus locks whose read indicator has any bit set.  Zero after
   every transaction has committed or aborted; the chaos harness asserts
   this after each soak (DESIGN.md §10). *)
let leaked t =
  let n = ref 0 in
  for w = 0 to t.nlocks - 1 do
    if Atomic.get t.wlocks.(w) <> 0 then incr n;
    if not (Read_indicator.is_empty t.ri ~self:(-1) w) then incr n
  done;
  !n

let clock_increments t =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.clock_count

let reset_clock_increments t =
  Array.iter (fun c -> Atomic.set c 0) t.clock_count
