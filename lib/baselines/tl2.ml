let name = "TL2"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos

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
  lp : Txn_loop.t;
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
      let tid = Util.Tid.get () in
      {
        tid;
        rv = 0;
        rset = Util.Vec.create ~dummy:(-1) ();
        wset = Wset.create ();
        acquired = Util.Vec.create ~dummy:(-1, -1) ();
        ro = false;
        lp = Txn_loop.make ~tid;
      })

let get_tx () = Domain.DLS.get tx_key

(* Abort, pinned on orec [oi] (conflict-cartography provenance): the
   aborter is the lock owner when [word] is locked; version-too-new
   conflicts have no identifiable owner. *)
let conflict tx reason oi word =
  Txn_loop.restart tx.lp reason ~aborter:(Orec.holder word) ~lock:oi

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
        if Orec.is_locked pre || Orec.version pre > tx.rv then
          conflict tx Obs.Events.Read_validation oi pre;
        let v = tv.v in
        if !Chaos.on then Chaos.point Chaos.Orec_check;
        let w = Orec.get o oi in
        if w <> pre then conflict tx Obs.Events.Read_validation oi w;
        Util.Vec.push tx.rset oi;
        v
  else begin
    let oi = Orec.index o tv.id in
    let pre = Orec.get o oi in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    if Orec.is_locked pre || Orec.version pre > tx.rv then
      conflict tx Obs.Events.Read_validation oi pre;
    let v = tv.v in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    let w = Orec.get o oi in
    if w <> pre then conflict tx Obs.Events.Read_validation oi w;
    v
  end

let write tx tv nv =
  if tx.ro then invalid_arg "Tl2.write inside a read-only transaction";
  Wset.add tx.wset tv nv

(* Drop commit-time locks to their pre-lock versions: after a failed
   commit, or an exception escaping mid-commit.  The body itself holds no
   locks (lazy locking). *)
let rollback tx =
  if not (Util.Vec.is_empty tx.acquired) then
    Orec.restore (Util.Once.get orecs) tx.acquired

let lock_write_set tx =
  let o = Util.Once.get orecs in
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
            conflict tx Obs.Events.Commit_lock_conflict oi (Orec.get o oi))

let validate_read_set tx =
  let o = Util.Once.get orecs in
  Util.Vec.iter
    (fun oi ->
      if !Chaos.on then Chaos.point Chaos.Validate;
      let w = Orec.get o oi in
      let valid =
        if Orec.is_locked w then
          (* Self-locked: the commit-time CAS may have succeeded from a
             version newer than rv; the read is valid only if the
             pre-lock version was within the snapshot. *)
          Orec.owner w = tx.tid
          &&
          match Orec.pre_lock_version tx.acquired oi with
          | Some old_version -> old_version <= tx.rv
          | None -> false
        else Orec.version w <= tx.rv
      in
      if not valid then conflict tx Obs.Events.Commit_validation oi w)
    tx.rset

let commit tx =
  if not (Wset.is_empty tx.wset) then begin
    lock_write_set tx;
    let wv = 1 + Atomic.fetch_and_add clock 1 in
    Stm_intf.Stats.clock_op stats ~tid:tx.tid;
    if wv <> tx.rv + 1 then validate_read_set tx;
    Wset.apply tx.wset;
    let o = Util.Once.get orecs in
    Util.Vec.iter (fun (oi, _) -> Orec.unlock_to o oi ~version:wv) tx.acquired
  end

let begin_attempt tx ~read_only =
  Util.Vec.clear tx.rset;
  Wset.clear tx.wset;
  Util.Vec.clear tx.acquired;
  tx.ro <- read_only;
  tx.rv <- Atomic.get clock

include Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let obs = obs
  let stats = stats
  let get_tx = get_tx
  let loop tx = tx.lp
  let begin_attempt = begin_attempt
  let commit = commit
  let rollback = rollback

  include Txn_loop.Backoff_hooks
end)

let clock_ops () = Stm_intf.Stats.clock_ops stats
let leaked_locks () =
  if !built then Orec.locked_count (Util.Once.get orecs) else 0
