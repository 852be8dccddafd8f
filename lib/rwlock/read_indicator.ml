let bits_per_word = 32

type t = {
  words_per_thread : int;
  words : int Atomic.t array; (* [tid * words_per_thread + w / 32] *)
}

let create ~num_locks =
  if num_locks <= 0 || num_locks mod bits_per_word <> 0 then
    invalid_arg "Read_indicator.create: num_locks must be a positive multiple of 32";
  let words_per_thread = num_locks / bits_per_word in
  {
    words_per_thread;
    words =
      Array.init (words_per_thread * Util.Tid.max_threads) (fun _ ->
          Atomic.make 0);
  }

(* [@inline] on the lock paths' leaves: without flambda, ocamlopt calls
   even a three-instruction function out of line across modules. *)
let[@inline] word_index t tid w = (tid * t.words_per_thread) + (w lsr 5)
let[@inline] bit w = 1 lsl (w land 31)

let[@inline] arrive t ~tid w =
  let idx = word_index t tid w in
  let cur = Atomic.get t.words.(idx) in
  Atomic.set t.words.(idx) (cur lor bit w)

let[@inline] depart t ~tid w =
  let idx = word_index t tid w in
  let cur = Atomic.get t.words.(idx) in
  Atomic.set t.words.(idx) (cur land lnot (bit w))

(* Indices of the owner's words that may be non-zero.  An [int array]
   rather than a [Util.Vec.t]: stores into it need no [caml_modify]. *)
type read_set = { mutable idxs : int array; mutable n : int }

let read_set () = { idxs = Array.make 16 0; n = 0 }

let[@inline never] grow rs =
  let a = Array.make (2 * rs.n) 0 in
  Array.blit rs.idxs 0 a 0 rs.n;
  rs.idxs <- a

let[@inline] record rs idx =
  if rs.n = Array.length rs.idxs then grow rs;
  rs.idxs.(rs.n) <- idx;
  rs.n <- rs.n + 1

(* One load decides both "already held" and what to store.  The word is
   recorded before the bit is set, so an exception escaping in between
   cannot leave a set bit that [depart_all] misses. *)
let[@inline] arrive_into t rs ~tid w =
  let idx = word_index t tid w in
  let cur = Atomic.get t.words.(idx) in
  let b = bit w in
  cur land b <> 0
  ||
  begin
    if cur = 0 then record rs idx;
    Atomic.set t.words.(idx) (cur lor b);
    false
  end

(* A word recorded twice (re-armed after a depart zeroed it) is cleared
   twice, which is harmless. *)
let[@inline] depart_all t rs =
  for i = 0 to rs.n - 1 do
    Atomic.set t.words.(rs.idxs.(i)) 0
  done;
  rs.n <- 0

let[@inline] holds t ~tid w =
  Atomic.get t.words.(word_index t tid w) land bit w <> 0

(* A loop over a local counter, not a recursive function or a closure: it
   allocates nothing and, having no [let rec], can be inlined into the
   write acquire. *)
let[@inline] is_empty t ~self w =
  let hwm = Util.Tid.high_water () in
  let tid = ref 0 in
  while !tid < hwm && (!tid = self || not (holds t ~tid:!tid w)) do
    incr tid
  done;
  !tid >= hwm

let iter_readers t ~self w f =
  let hwm = Util.Tid.high_water () in
  for tid = 0 to hwm - 1 do
    if tid <> self && holds t ~tid w then f tid
  done
