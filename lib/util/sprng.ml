(* The 64-bit state lives unboxed in a [Bytes.t] (a mutable [int64] field
   would box a fresh Int64 on every draw), at byte [off] with [off] bytes
   of padding on either side.  Generators that one domain makes in a row
   end up side by side in its heap; the padding keeps each state on a
   cache line that no other generator writes (DESIGN.md §7). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L
let off = 64

let create seed =
  let t = Bytes.create (off + 8 + off) in
  set64 t off (Int64.of_int seed);
  t

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (get64 t off) golden in
  set64 t off s;
  mix64 s

let next t = step t

let hash4 a b c d =
  let[@inline] absorb z x = mix64 (Int64.add (Int64.logxor z (Int64.of_int x)) golden) in
  let z = mix64 (Int64.add (Int64.of_int a) golden) in
  let z = absorb z b in
  let z = absorb z c in
  let z = absorb z d in
  Int64.to_int (mix64 z) land max_int

let bits t = Int64.to_int (step t) land max_int

let int t n =
  assert (n > 0);
  bits t mod n

let float t = float_of_int (bits t) /. float_of_int max_int

let bool t = Int64.logand (step t) 1L = 1L
