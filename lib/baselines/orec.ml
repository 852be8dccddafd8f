type t = { mask : int; words : int Atomic.t array }

let create ~num_orecs =
  if num_orecs land (num_orecs - 1) <> 0 || num_orecs <= 0 then
    invalid_arg "Orec.create: num_orecs must be a power of two";
  { mask = num_orecs - 1; words = Array.init num_orecs (fun _ -> Atomic.make 0) }

let index t id = id land t.mask
let get t i = Atomic.get t.words.(i)

let is_locked w = w land 1 = 1
let owner w = w lsr 1
let holder w = if is_locked w then owner w else -1
let version w = w lsr 1
let locked_word ~tid = (tid lsl 1) lor 1
let version_word v = v lsl 1

let try_lock t ~tid i =
  let w = Atomic.get t.words.(i) in
  if is_locked w then None
  else if Atomic.compare_and_set t.words.(i) w (locked_word ~tid) then
    Some (version w)
  else None

let unlock_to t i ~version = Atomic.set t.words.(i) (version_word version)

let restore t log =
  Util.Vec.iter_rev
    (fun (oi, old_version) -> unlock_to t oi ~version:old_version)
    log;
  Util.Vec.clear log

let pre_lock_version log oi =
  let n = Util.Vec.length log in
  let rec go i =
    if i >= n then None
    else
      let oj, old_version = Util.Vec.get log i in
      if oj = oi then Some old_version else go (i + 1)
  in
  go 0

let size t = t.mask + 1

let locked_count t =
  let n = ref 0 in
  Array.iter (fun w -> if is_locked (Atomic.get w) then incr n) t.words;
  !n
