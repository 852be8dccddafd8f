type variant = No_wait | Wait_die | Dl_detect

let variant_name = function
  | No_wait -> "NO_WAIT"
  | Wait_die -> "WAIT_DIE"
  | Dl_detect -> "DL_DETECT"

(* Per-row lock: a spinlock-guarded owner table.  [writer] holds tid+1 (0 =
   none); the reader-owner bitmask is split across two words because OCaml
   ints hold 63 bits and [Util.Tid.max_threads] is 64. *)
type row_lock = {
  guard : Rwlock.Spinlock.t;
  mutable writer : int;
  mutable readers_lo : int; (* tids 0..31 *)
  mutable readers_hi : int; (* tids 32..63 *)
}

let reader_word rl tid = if tid < 32 then rl.readers_lo else rl.readers_hi
let reader_bit tid = 1 lsl (tid land 31)
let has_reader rl tid = reader_word rl tid land reader_bit tid <> 0

let add_reader rl tid =
  if tid < 32 then rl.readers_lo <- rl.readers_lo lor reader_bit tid
  else rl.readers_hi <- rl.readers_hi lor reader_bit tid

let remove_reader rl tid =
  if tid < 32 then rl.readers_lo <- rl.readers_lo land lnot (reader_bit tid)
  else rl.readers_hi <- rl.readers_hi land lnot (reader_bit tid)

let only_possible_reader rl tid =
  (* no reader bit other than possibly [tid]'s *)
  let lo = if tid < 32 then rl.readers_lo land lnot (reader_bit tid) else rl.readers_lo in
  let hi = if tid >= 32 then rl.readers_hi land lnot (reader_bit tid) else rl.readers_hi in
  lo = 0 && hi = 0

module Make (V : sig
  val variant : variant
end) =
struct
  let name = variant_name V.variant

  type worker = {
    tid : int;
    mutable rids : int array; (* the resolve pass's row ids, by access *)
    rlocks : int Util.Vec.t; (* rids share-locked *)
    wlocks : int Util.Vec.t; (* rids exclusive-locked *)
    undo : Undo.t;
  }

  type t = {
    table : Table.t;
    locks : row_lock array;
    ts_clock : int Atomic.t; (* WAIT_DIE transaction timestamps *)
    txn_ts : int Atomic.t array; (* announced per-thread ts, 0 = none *)
    waits_for : bool Atomic.t array; (* DL_DETECT adjacency, row-major *)
    edges_dirty : bool array; (* per tid: out-edges were recorded *)
    workers : worker Per_worker.t;
  }

  let mt = Util.Tid.max_threads

  let create table =
    assert (mt <= 64);
    {
      table;
      locks =
        Array.init (Table.num_rows table) (fun _ ->
            {
              guard = Rwlock.Spinlock.create ();
              writer = 0;
              readers_lo = 0;
              readers_hi = 0;
            });
      ts_clock = Atomic.make 1;
      txn_ts = Array.init mt (fun _ -> Atomic.make 0);
      waits_for = Array.init (mt * mt) (fun _ -> Atomic.make false);
      edges_dirty = Array.make mt false;
      workers =
        Per_worker.create (fun tid ->
            {
              tid;
              rids = Array.make Ycsb.accesses_per_txn 0;
              rlocks = Util.Vec.create ~dummy:(-1) ();
              wlocks = Util.Vec.create ~dummy:(-1) ();
              undo = Undo.create ();
            });
    }

  let workers t = t.workers

  (* ---- waits-for graph (DL_DETECT) ---- *)

  let edge t a b = t.waits_for.((a * mt) + b)

  let clear_out_edges t a =
    if t.edges_dirty.(a) then begin
      t.edges_dirty.(a) <- false;
      for b = 0 to mt - 1 do
        Atomic.set (edge t a b) false
      done
    end

  let would_deadlock t me =
    (* DFS over the waits-for graph looking for a path back to [me]. *)
    let visited = Array.make mt false in
    let rec reachable a =
      if a = me then true
      else if visited.(a) then false
      else begin
        visited.(a) <- true;
        let rec scan b =
          b < mt
          && ((Atomic.get (edge t a b) && reachable b) || scan (b + 1))
        in
        scan 0
      end
    in
    let rec from b =
      b < mt && ((Atomic.get (edge t me b) && reachable b) || from (b + 1))
    in
    from 0

  (* ---- conflict decisions ---- *)

  let ts_of t tid = Atomic.get t.txn_ts.(tid)

  let min_owner_ts t rl ~self =
    let m = ref max_int in
    if rl.writer <> 0 && rl.writer - 1 <> self then
      m := Stdlib.min !m (ts_of t (rl.writer - 1));
    for b = 0 to mt - 1 do
      if b <> self && has_reader rl b then m := Stdlib.min !m (ts_of t b)
    done;
    !m

  let record_wait_edges t rl ~self =
    t.edges_dirty.(self) <- true;
    if rl.writer <> 0 && rl.writer - 1 <> self then
      Atomic.set (edge t self (rl.writer - 1)) true;
    for b = 0 to mt - 1 do
      if b <> self && has_reader rl b then Atomic.set (edge t self b) true
    done

  type decision = Granted | Wait | Die

  (* Caller holds [rl.guard]. *)
  let decide t p rl ~exclusive =
    let self = p.tid in
    let conflict =
      if exclusive then
        (rl.writer <> 0 && rl.writer <> self + 1)
        || not (only_possible_reader rl self)
      else rl.writer <> 0 && rl.writer <> self + 1
    in
    if not conflict then begin
      if exclusive then rl.writer <- self + 1
      else add_reader rl self;
      Granted
    end
    else
      match V.variant with
      | No_wait -> Die
      | Wait_die ->
          if ts_of t self < min_owner_ts t rl ~self then Wait else Die
      | Dl_detect ->
          record_wait_edges t rl ~self;
          if would_deadlock t self then Die else Wait

  (* One decision under the row's guard; a settled one also drops
     DL_DETECT's out-edges. *)
  let try_row t p rl ~exclusive =
    Rwlock.Spinlock.lock rl.guard;
    let d = decide t p rl ~exclusive in
    Rwlock.Spinlock.unlock rl.guard;
    if V.variant = Dl_detect && d <> Wait then clear_out_edges t p.tid;
    d

  let rec wait_row t p rl ~exclusive b =
    Util.Backoff.once b;
    match try_row t p rl ~exclusive with
    | Granted -> true
    | Die -> false
    | Wait -> wait_row t p rl ~exclusive b

  (* The backoff state is built by the first wait, so an uncontended
     acquire allocates nothing. *)
  let acquire t p rid ~exclusive =
    let rl = t.locks.(rid) in
    match try_row t p rl ~exclusive with
    | Granted -> true
    | Die -> false
    | Wait -> wait_row t p rl ~exclusive (Util.Backoff.create ())

  let release_all t p =
    let self = p.tid in
    for i = 0 to Util.Vec.length p.wlocks - 1 do
      let rl = t.locks.(Util.Vec.get p.wlocks i) in
      Rwlock.Spinlock.lock rl.guard;
      if rl.writer = self + 1 then rl.writer <- 0;
      Rwlock.Spinlock.unlock rl.guard
    done;
    for i = 0 to Util.Vec.length p.rlocks - 1 do
      let rl = t.locks.(Util.Vec.get p.rlocks i) in
      Rwlock.Spinlock.lock rl.guard;
      remove_reader rl self;
      Rwlock.Spinlock.unlock rl.guard
    done

  let leaked_locks t =
    Array.fold_left
      (fun n rl ->
        if rl.writer <> 0 || rl.readers_lo <> 0 || rl.readers_hi <> 0 then n + 1
        else n)
      0 t.locks

  let holds_write t p rid = t.locks.(rid).writer = p.tid + 1
  let holds_read t p rid = has_reader t.locks.(rid) p.tid

  (* The resolve pass, as [Cc_2plsf.resolve]: the index probes and row
     loads once per transaction, plus each row's owner record, before any
     lock is taken.  The record's guard is not loaded: [Rwlock.Spinlock]
     is abstract and its only probe, [try_lock], stores. *)
  let resolve t p (txn : Ycsb.txn) =
    let n = Array.length txn.keys in
    if Array.length p.rids < n then p.rids <- Array.make n 0;
    Table.resolve t.table txn.keys p.rids;
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity t.locks.(p.rids.(i)).writer)
    done

  let attempt t p (txn : Ycsb.txn) =
    Util.Vec.clear p.rlocks;
    Util.Vec.clear p.wlocks;
    Undo.clear p.undo;
    let n = Array.length txn.keys in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      let rid = p.rids.(!i) in
      (match txn.ops.(!i) with
      | Ycsb.Read ->
          if
            holds_read t p rid || holds_write t p rid
            || (acquire t p rid ~exclusive:false
               && begin
                    Util.Vec.push p.rlocks rid;
                    true
                  end)
          then ignore (Cc_intf.read_work (Table.payload t.table rid))
          else ok := false
      | Ycsb.Write ->
          let held = holds_write t p rid in
          if held || acquire t p rid ~exclusive:true then begin
            if not held then Util.Vec.push p.wlocks rid;
            Undo.save p.undo t.table rid;
            Cc_intf.write_work (Table.payload t.table rid)
          end
          else ok := false);
      incr i
    done;
    if !ok then begin
      release_all t p;
      true
    end
    else begin
      Undo.restore p.undo t.table;
      release_all t p;
      false
    end

  let execute t ~tid txn =
    let p = Per_worker.get t.workers tid in
    resolve t p txn;
    (* WAIT_DIE: one timestamp per transaction, kept across restarts. *)
    if V.variant = Wait_die then
      Atomic.set t.txn_ts.(tid) (Atomic.fetch_and_add t.ts_clock 1);
    let aborts = ref 0 in
    while not (attempt t p txn) do
      incr aborts
    done;
    if V.variant = Wait_die then Atomic.set t.txn_ts.(tid) 0;
    if V.variant = Dl_detect then clear_out_edges t tid;
    !aborts
end
