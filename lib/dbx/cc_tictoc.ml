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

type worker = {
  rset : (int * int) Util.Vec.t; (* (rid, observed word) *)
  wset : (int * int) Util.Vec.t; (* (rid, observed word at buffering time) *)
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
            rset = Util.Vec.create ~dummy:(-1, 0) ();
            wset = Util.Vec.create ~dummy:(-1, 0) ();
            locked = Util.Vec.create ~dummy:(-1) ();
          });
  }

let workers t = t.workers

exception Abort

let stable_word t rid =
  (* Read an unlocked word, spinning through writer commits. *)
  let b = Util.Backoff.create () in
  let rec go () =
    let w = Atomic.get t.words.(rid) in
    if is_locked w then begin
      Util.Backoff.once b;
      go ()
    end
    else w
  in
  go ()

let try_lock_row t rid =
  let w = Atomic.get t.words.(rid) in
  (not (is_locked w)) && Atomic.compare_and_set t.words.(rid) w (w lor lock_bit)

let unlock_row t rid =
  let w = Atomic.get t.words.(rid) in
  Atomic.set t.words.(rid) (w land lnot lock_bit)

let release_locked t p =
  Util.Vec.iter (fun rid -> unlock_row t rid) p.locked

let attempt t p (txn : Ycsb.txn) =
  Util.Vec.clear p.rset;
  Util.Vec.clear p.wset;
  Util.Vec.clear p.locked;
  try
    (* Execution phase: optimistic reads, buffered writes. *)
    let n = Array.length txn.keys in
    for i = 0 to n - 1 do
      let rid = Table.lookup t.table txn.keys.(i) in
      match txn.ops.(i) with
      | Ycsb.Read ->
          let w = stable_word t rid in
          ignore (Cc_intf.read_work (Table.payload t.table rid));
          if Atomic.get t.words.(rid) <> w then raise Abort;
          Util.Vec.push p.rset (rid, w)
      | Ycsb.Write ->
          let w = stable_word t rid in
          Util.Vec.push p.wset (rid, w)
    done;
    (* Lock phase (no-wait); a row written twice appears twice in the
       write set but must be locked once. *)
    Util.Vec.iter
      (fun (rid, _) ->
        if Util.Vec.exists (fun r -> r = rid) p.locked then ()
        else if try_lock_row t rid then Util.Vec.push p.locked rid
        else raise Abort)
      p.wset;
    (* Commit timestamp. *)
    let ct = ref 0 in
    Util.Vec.iter
      (fun (rid, _) ->
        let w = Atomic.get t.words.(rid) in
        ct := Stdlib.max !ct (rts_of w + 1))
      p.wset;
    Util.Vec.iter (fun (_, w) -> ct := Stdlib.max !ct (wts_of w)) p.rset;
    let ct = !ct in
    (* Read-set validation with rts extension. *)
    Util.Vec.iter
      (fun (rid, observed) ->
        if rts_of observed < ct then begin
          let cur = Atomic.get t.words.(rid) in
          if wts_of cur <> wts_of observed then raise Abort;
          if is_locked cur then begin
            (* Our own commit lock is fine (the write phase stamps the row
               to ct anyway); anyone else's kills the read lease. *)
            if not (Util.Vec.exists (fun r -> r = rid) p.locked) then
              raise Abort
          end
          else if rts_of cur < ct then begin
            let extended = pack ~locked:false ~wts:(wts_of cur) ~rts:ct in
            if not (Atomic.compare_and_set t.words.(rid) cur extended) then
              raise Abort
          end
        end)
      p.rset;
    (* Write phase. *)
    Util.Vec.iter
      (fun (rid, _) ->
        Cc_intf.write_work (Table.payload t.table rid);
        Atomic.set t.words.(rid) (pack ~locked:false ~wts:ct ~rts:ct))
      p.wset;
    true
  with Abort ->
    release_locked t p;
    false

let execute t ~tid txn =
  let p = Per_worker.get t.workers tid in
  let aborts = ref 0 in
  while not (attempt t p txn) do
    incr aborts
  done;
  !aborts
