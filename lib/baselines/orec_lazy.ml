let name = "OREC-Z"

module Obs = Twoplsf_obs

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  tid : int;
  mutable rv : int;
  rset : (int * int) Util.Vec.t; (* (orec index, observed version) *)
  wset : Wset.t;
  acquired : (int * int) Util.Vec.t;
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
  if !built then failwith "Orec_lazy.configure: orec table already built";
  requested_num_orecs := num_orecs

let clock = Atomic.make 0
let stats = Stm_intf.Stats.create ()
let obs = Obs.Scope.create name

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        tid;
        rv = 0;
        rset = Util.Vec.create ~dummy:(-1, -1) ();
        wset = Wset.create ();
        acquired = Util.Vec.create ~dummy:(-1, -1) ();
        ro = false;
        lp = Txn_loop.make ~tid;
      })

let get_tx () = Domain.DLS.get tx_key

(* Abort, pinned on orec [oi] and, when [word] is locked, its owner. *)
let conflict tx reason oi word =
  Txn_loop.restart tx.lp reason ~aborter:(Orec.holder word) ~lock:oi

(* Revalidate every read at its observed version; an invalid one aborts
   the attempt with [reason]. *)
let validate tx ~allow_mine reason =
  let o = Util.Once.get orecs in
  Util.Vec.iter
    (fun (oi, observed) ->
      let w = Orec.get o oi in
      let valid =
        if Orec.is_locked w then
          (* Self-locked at commit: valid only if we locked it at exactly
             the version this read observed. *)
          allow_mine
          && Orec.owner w = tx.tid
          &&
          match Orec.pre_lock_version tx.acquired oi with
          | Some old_version -> old_version = observed
          | None -> false
        else Orec.version w = observed
      in
      if not valid then conflict tx reason oi w)
    tx.rset

(* On version overflow: extend the snapshot, then RE-EXECUTE the load.
   The tvar may have been committed to between our value fetch and the
   extension; the extension moves [rv] past that commit, so returning the
   already-fetched value would pair a stale value with an extended
   snapshot (a lost update once commit skips validation on
   [wv = rv + 1]). *)
let rec read_orec tx (tv : 'a tvar) : 'a =
  let o = Util.Once.get orecs in
  let oi = Orec.index o tv.id in
  let pre = Orec.get o oi in
  if Orec.is_locked pre then conflict tx Obs.Events.Read_validation oi pre;
  let v = tv.v in
  let w = Orec.get o oi in
  if w <> pre then conflict tx Obs.Events.Read_validation oi w;
  let ver = Orec.version pre in
  if ver > tx.rv then begin
    (* Snapshot extension: revalidate every read, then move [rv]. *)
    let now = Atomic.get clock in
    validate tx ~allow_mine:false Obs.Events.Read_validation;
    tx.rv <- now;
    read_orec tx tv
  end
  else begin
    (* Logged even in read-only mode: extension must revalidate every
       prior read to keep the snapshot opaque. *)
    Util.Vec.push tx.rset (oi, ver);
    v
  end

let read tx (tv : 'a tvar) : 'a =
  if not tx.ro then
    match Wset.find tx.wset tv with
    | Some v -> v
    | None -> read_orec tx tv
  else read_orec tx tv

let write tx tv nv =
  if tx.ro then invalid_arg "Orec_lazy.write inside a read-only transaction";
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
      let w = Orec.get o oi in
      if Orec.is_locked w && Orec.owner w = tx.tid then ()
      else
        match Orec.try_lock o ~tid:tx.tid oi with
        | Some old_version -> Util.Vec.push tx.acquired (oi, old_version)
        | None ->
            conflict tx Obs.Events.Commit_lock_conflict oi (Orec.get o oi))

let commit tx =
  if not (Wset.is_empty tx.wset) then begin
    lock_write_set tx;
    validate tx ~allow_mine:true Obs.Events.Commit_validation;
    let wv = 1 + Atomic.fetch_and_add clock 1 in
    Stm_intf.Stats.clock_op stats ~tid:tx.tid;
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
