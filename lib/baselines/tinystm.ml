let name = "TinySTM"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos

(* Reintroducible bugs: each variant undoes one of the latent-race fixes
   this STM shipped with, so the schedule-exploration regression corpus
   (test/schedules/) can prove the scheduler still finds them.  The
   default ([None]) path is bit-identical to the fixed protocol. *)
type bug = Extend_stale_read | Rollback_old_version | Lock_toctou

let bug_name = function
  | Extend_stale_read -> "extend-stale-read"
  | Rollback_old_version -> "rollback-old-version"
  | Lock_toctou -> "lock-toctou"

let bug_names =
  List.map bug_name [ Extend_stale_read; Rollback_old_version; Lock_toctou ]

let bug_of_string s =
  match
    List.find_opt
      (fun b -> String.equal (bug_name b) s)
      [ Extend_stale_read; Rollback_old_version; Lock_toctou ]
  with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Tinystm.bug_of_string: %S (expected one of %s)" s
           (String.concat ", " bug_names))

let active_bug = ref None
let set_bug b = active_bug := b

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  tid : int;
  mutable rv : int;
  rset : (int * int) Util.Vec.t; (* (orec index, observed version) *)
  undo : Wset.t;
  wlocks : (int * int) Util.Vec.t; (* (orec index, pre-lock version) *)
  mutable ro : bool;
  lp : Txn_loop.t;
}

let obs = Obs.Scope.create name

let requested_num_orecs = ref 65536
let built = ref false

let orecs =
  Util.Once.create (fun () ->
      built := true;
      Orec.create ~num_orecs:!requested_num_orecs)

let configure ?(num_orecs = 65536) () =
  if !built then failwith "Tinystm.configure: orec table already built";
  requested_num_orecs := num_orecs

let clock = Atomic.make 0
let stats = Stm_intf.Stats.create ()

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        tid;
        rv = 0;
        rset = Util.Vec.create ~dummy:(-1, -1) ();
        undo = Wset.create ();
        wlocks = Util.Vec.create ~dummy:(-1, -1) ();
        ro = false;
        lp = Txn_loop.make ~tid;
      })

let get_tx () = Domain.DLS.get tx_key

(* Pin the in-flight abort on orec [oi] (conflict-cartography provenance):
   the aborter is the lock owner when [word] is locked. *)
let pin tx oi word =
  tx.lp.lock <- oi;
  tx.lp.aborter <- Orec.holder word

(* A self-locked orec in the read set is valid only if we locked it at
   exactly the version the read observed: the lock hides the version
   word, and accepting it unconditionally would let a commit that slid
   in between the read and our lock acquisition go undetected. *)
let check_read o tx (oi, observed) =
  if !Chaos.on then Chaos.point Chaos.Validate;
  let w = Orec.get o oi in
  if Orec.is_locked w then begin
    if Orec.owner w <> tx.tid then begin
      pin tx oi w;
      raise Exit
    end;
    (* [Lock_toctou] drops the pre-lock-version comparison: any
       self-locked orec validates, hiding commits that slid in between
       the read and our own lock acquisition. *)
    if !active_bug <> Some Lock_toctou then
      match Orec.pre_lock_version tx.wlocks oi with
      | Some old_version when old_version = observed -> ()
      | Some _ | None ->
          pin tx oi w;
          raise Exit
  end
  else if Orec.version w <> observed then begin
    pin tx oi w;
    raise Exit
  end

(* LSA snapshot extension: move [rv] forward to the current clock if every
   read is still valid at its observed version. *)
let extend tx =
  let o = Util.Once.get orecs in
  (* Window of interest: a commit can land between the caller's version
     check and the clock read below, and the extension then moves [rv]
     past it. *)
  if !Chaos.on then Chaos.point Chaos.Validate;
  let now = Atomic.get clock in
  let ok = ref true in
  (try Util.Vec.iter (check_read o tx) tx.rset with Exit -> ok := false);
  if !ok then tx.rv <- now;
  !ok

(* Stamp the abort reason at the raise site, like the other baselines. *)
let restart tx reason =
  tx.lp.reason <- reason;
  raise Txn_loop.Restart

let rec read tx (tv : 'a tvar) : 'a =
  let o = Util.Once.get orecs in
  let oi = Orec.index o tv.id in
  let w = Orec.get o oi in
  (* Two sync points bracket the unlocked fast path: orec load -> value
     fetch (a writer can lock and install a dirty value here) and value
     fetch -> recheck (a writer can roll back here — the recheck only
     catches it because rollback releases at a fresh version). *)
  if !Chaos.on then Chaos.point Chaos.Orec_check;
  if Orec.is_locked w then begin
    if Orec.owner w = tx.tid then tv.v (* own encounter-time lock *)
    else begin
      pin tx oi w;
      restart tx Obs.Events.Read_validation
    end
  end
  else begin
    let v = tv.v in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    let w2 = Orec.get o oi in
    if w2 <> w then begin
      pin tx oi w2;
      restart tx Obs.Events.Read_validation
    end;
    let ver = Orec.version w in
    if ver > tx.rv then
      (* Snapshot extension, then RE-EXECUTE the load: the tvar may have
         been written between our value fetch and the extension, and the
         extension moves [rv] past that commit — returning the value
         fetched above would pair a stale value with an extended
         snapshot (a lost update once commit skips validation on
         [wv = rv + 1]).  [Extend_stale_read] reintroduces exactly that:
         it keeps the pre-extension value and logs it at its pre-extension
         version. *)
      if !active_bug = Some Extend_stale_read then begin
        if extend tx then begin
          Util.Vec.push tx.rset (oi, ver);
          v
        end
        else restart tx Obs.Events.Read_validation
      end
      else if extend tx then read tx tv
      else restart tx Obs.Events.Read_validation
    else begin
      (* Read-only transactions must log reads too: the snapshot extension
         above is only sound if it revalidates every prior read. *)
      Util.Vec.push tx.rset (oi, ver);
      v
    end
  end

let write tx tv nv =
  if tx.ro then invalid_arg "Tinystm.write inside a read-only transaction";
  let o = Util.Once.get orecs in
  let oi = Orec.index o tv.id in
  let w = Orec.get o oi in
  if Orec.is_locked w then begin
    if Orec.owner w <> tx.tid then begin
      pin tx oi w;
      restart tx Obs.Events.Write_lock_conflict
    end;
    Wset.log_old_once tx.undo tv tv.v;
    tv.v <- nv
  end
  else begin
    let ver = Orec.version w in
    if ver > tx.rv && not (extend tx) then
      restart tx Obs.Events.Read_validation;
    if !Chaos.on then Chaos.point Chaos.Orec_lock;
    match Orec.try_lock o ~tid:tx.tid oi with
    | None ->
        pin tx oi (Orec.get o oi);
        restart tx Obs.Events.Write_lock_conflict
    | Some old_version ->
        Util.Vec.push tx.wlocks (oi, old_version);
        (* The version may have advanced between the check above and the
           CAS: [old_version] is the authoritative pre-lock version.  If
           it passed [rv], revalidate the snapshot before trusting any
           earlier read of this orec (the push above lets a failed
           extension release the lock through the normal rollback).
           [Lock_toctou] skips this recheck, re-opening the TOCTOU the
           recheck closed — together with its [check_read] half, a commit
           between the version check and the CAS goes unnoticed. *)
        if
          !active_bug <> Some Lock_toctou
          && old_version > tx.rv
          && not (extend tx)
        then restart tx Obs.Events.Read_validation;
        Wset.log_old_once tx.undo tv tv.v;
        tv.v <- nv
  end

let validate_read_set tx =
  let o = Util.Once.get orecs in
  let ok = ref true in
  (try Util.Vec.iter (check_read o tx) tx.rset with Exit -> ok := false);
  !ok

let release_wlocks_to tx version =
  let o = Util.Once.get orecs in
  Util.Vec.iter (fun (oi, _) -> Orec.unlock_to o oi ~version) tx.wlocks

(* Roll back undo-logged values *before* releasing the encounter-time
   locks, then forget both logs so a later rollback is a no-op (another
   transaction may lock the released orecs immediately).

   The locks are released at a FRESH clock version, not the pre-lock one.
   Write-through rollback republishes the old values, and restoring the
   old version with them reopens the classic dirty-read ABA: a reader
   that fetched the in-flight value between its two lock-word loads
   would see an unchanged word and validate the dirty read.  Tagging the
   restored values with a new version makes the abort look like a
   committed no-op write, which every optimistic reader revalidates. *)
let rollback tx =
  (* Dirty values are still published here: a scheduling decision at this
     point lets a reader race the restore below. *)
  if !Chaos.on then Chaos.point Chaos.Mid_rollback;
  Wset.rollback tx.undo;
  if not (Util.Vec.is_empty tx.wlocks) then begin
    match !active_bug with
    | Some Rollback_old_version ->
        (* BUG variant: release at the pre-lock versions, making the
           abort invisible to a reader that fetched the in-flight value
           between its two lock-word loads (the dirty-read ABA the fresh
           version below closes). *)
        Orec.restore (Util.Once.get orecs) tx.wlocks
    | _ ->
        let wv = 1 + Atomic.fetch_and_add clock 1 in
        Stm_intf.Stats.clock_op stats ~tid:tx.tid;
        release_wlocks_to tx wv
  end;
  Wset.clear tx.undo;
  Util.Vec.clear tx.wlocks

let commit tx =
  if Util.Vec.is_empty tx.wlocks then ()
  else begin
    let wv = 1 + Atomic.fetch_and_add clock 1 in
    Stm_intf.Stats.clock_op stats ~tid:tx.tid;
    if wv <> tx.rv + 1 && not (validate_read_set tx) then begin
      rollback tx;
      restart tx Obs.Events.Commit_validation
    end;
    release_wlocks_to tx wv
  end

let begin_attempt tx ~read_only =
  Util.Vec.clear tx.rset;
  Wset.clear tx.undo;
  Util.Vec.clear tx.wlocks;
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
