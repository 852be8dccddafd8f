let name = "TicToc"

(* Word layout (63-bit OCaml int):
   bit 0        = lock
   bits 1..40   = wts (40 bits)
   bits 41..62  = delta = rts - wts (22 bits, capped) *)

let lock_bit = 1
let wts_shift = 1
let wts_mask = (1 lsl 40) - 1
let delta_shift = 41
let delta_max = (1 lsl 22) - 1

let is_locked w = w land lock_bit <> 0
let wts_of w = (w lsr wts_shift) land wts_mask
let delta_of w = w lsr delta_shift
let rts_of w = wts_of w + delta_of w

let pack ~locked ~wts ~rts =
  let delta = Stdlib.min (rts - wts) delta_max in
  (if locked then lock_bit else 0)
  lor (wts lsl wts_shift)
  lor (delta lsl delta_shift)

(* Sets as parallel int vectors, not vectors of pairs: a push stores two
   immediates and allocates nothing. *)
type worker = {
  mutable rids : int array; (* the resolve pass's row ids, by access *)
  rset_rids : int Util.Vec.t;
  rset_words : int Util.Vec.t; (* the word each read observed *)
  wset : int Util.Vec.t; (* rids written, in access order *)
  locked : int Util.Vec.t; (* rids locked during commit *)
}

type t = { table : Table.t; words : int Atomic.t array; workers : worker Per_worker.t }

let create table =
  {
    table;
    words = Array.init (Table.num_rows table) (fun _ -> Atomic.make (pack ~locked:false ~wts:0 ~rts:0));
    workers =
      Per_worker.create (fun _ ->
          {
            rids = Array.make Ycsb.accesses_per_txn 0;
            rset_rids = Util.Vec.create ~dummy:(-1) ();
            rset_words = Util.Vec.create ~dummy:0 ();
            wset = Util.Vec.create ~dummy:(-1) ();
            locked = Util.Vec.create ~dummy:(-1) ();
          });
  }

let workers t = t.workers

let leaked_locks t =
  Array.fold_left
    (fun n w -> if is_locked (Atomic.get w) then n + 1 else n)
    0 t.words

exception Abort

(* Spin through writer commits until the word is unlocked.  The backoff
   state is built by the first spin, so an unlocked word costs one load
   and no allocation. *)
let rec stable_word_wait t rid b =
  Util.Backoff.once b;
  let w = Atomic.get t.words.(rid) in
  if is_locked w then stable_word_wait t rid b else w

let stable_word t rid =
  let w = Atomic.get t.words.(rid) in
  if is_locked w then stable_word_wait t rid (Util.Backoff.create ()) else w

let try_lock_row t rid =
  let w = Atomic.get t.words.(rid) in
  (not (is_locked w)) && Atomic.compare_and_set t.words.(rid) w (w lor lock_bit)

let unlock_row t rid =
  let w = Atomic.get t.words.(rid) in
  Atomic.set t.words.(rid) (w land lnot lock_bit)

let rec mem_locked p rid i =
  i < Util.Vec.length p.locked
  && (Util.Vec.get p.locked i = rid || mem_locked p rid (i + 1))

let release_locked t p =
  for i = 0 to Util.Vec.length p.locked - 1 do
    unlock_row t (Util.Vec.get p.locked i)
  done

(* The resolve pass, as [Cc_2plsf.resolve]: the index probes and row
   loads once per transaction, plus each row's timestamp word. *)
let resolve t p (txn : Ycsb.txn) =
  let n = Array.length txn.keys in
  if Array.length p.rids < n then p.rids <- Array.make n 0;
  Table.resolve t.table txn.keys p.rids;
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Atomic.get t.words.(p.rids.(i))))
  done

let attempt t p (txn : Ycsb.txn) =
  Util.Vec.clear p.rset_rids;
  Util.Vec.clear p.rset_words;
  Util.Vec.clear p.wset;
  Util.Vec.clear p.locked;
  try
    (* Execution phase: optimistic reads, buffered writes. *)
    let n = Array.length txn.keys in
    for i = 0 to n - 1 do
      let rid = p.rids.(i) in
      match txn.ops.(i) with
      | Ycsb.Read ->
          let w = stable_word t rid in
          ignore (Cc_intf.read_work (Table.payload t.table rid));
          if Atomic.get t.words.(rid) <> w then raise Abort;
          Util.Vec.push p.rset_rids rid;
          Util.Vec.push p.rset_words w
      | Ycsb.Write ->
          ignore (stable_word t rid);
          Util.Vec.push p.wset rid
    done;
    (* Lock phase (no-wait); a row written twice appears twice in the
       write set but must be locked once. *)
    for i = 0 to Util.Vec.length p.wset - 1 do
      let rid = Util.Vec.get p.wset i in
      if mem_locked p rid 0 then ()
      else if try_lock_row t rid then Util.Vec.push p.locked rid
      else raise Abort
    done;
    (* Commit timestamp. *)
    let ct = ref 0 in
    for i = 0 to Util.Vec.length p.wset - 1 do
      let w = Atomic.get t.words.(Util.Vec.get p.wset i) in
      ct := Stdlib.max !ct (rts_of w + 1)
    done;
    for i = 0 to Util.Vec.length p.rset_words - 1 do
      ct := Stdlib.max !ct (wts_of (Util.Vec.get p.rset_words i))
    done;
    let ct = !ct in
    (* Read-set validation with rts extension. *)
    for i = 0 to Util.Vec.length p.rset_rids - 1 do
      let rid = Util.Vec.get p.rset_rids i in
      let observed = Util.Vec.get p.rset_words i in
      if rts_of observed < ct then begin
        let cur = Atomic.get t.words.(rid) in
        if wts_of cur <> wts_of observed then raise Abort;
        if is_locked cur then begin
          (* Our own commit lock is fine (the write phase stamps the row
             to ct anyway); anyone else's kills the read lease. *)
          if not (mem_locked p rid 0) then raise Abort
        end
        else if rts_of cur < ct then begin
          let extended = pack ~locked:false ~wts:(wts_of cur) ~rts:ct in
          if not (Atomic.compare_and_set t.words.(rid) cur extended) then
            raise Abort
        end
      end
    done;
    (* Write phase: every write lands before any row is stamped, and each
       locked row is stamped once.  Stamping a row written twice after
       its first write would unlock it half-applied, and a reader that
       read it then would still validate against the second, identical
       stamp. *)
    for i = 0 to Util.Vec.length p.wset - 1 do
      Cc_intf.write_work (Table.payload t.table (Util.Vec.get p.wset i))
    done;
    for i = 0 to Util.Vec.length p.locked - 1 do
      Atomic.set t.words.(Util.Vec.get p.locked i) (pack ~locked:false ~wts:ct ~rts:ct)
    done;
    true
  with Abort ->
    release_locked t p;
    false

(* A read-only transaction of one access: [attempt]'s read arm, and its
   commit, at which a lone read validates exactly when the row's word did
   not change across the read (its commit timestamp is the row's wts, at
   most its rts). *)
let rec read_row t rid =
  let w = stable_word t rid in
  let copy = Bytes.copy (Table.payload t.table rid) in
  if Atomic.get t.words.(rid) = w then copy else read_row t rid

let read_copy t key = read_row t (Table.lookup t.table key)

let execute t ~tid txn =
  let p = Per_worker.get t.workers tid in
  resolve t p txn;
  let aborts = ref 0 in
  while not (attempt t p txn) do
    incr aborts
  done;
  !aborts
