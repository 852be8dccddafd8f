type 'a t = { mutable a : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { a = Array.make (Stdlib.max capacity 1) dummy; len = 0; dummy }

let length t = t.len

let[@inline never] grow t =
  let a' = Array.make (2 * Array.length t.a) t.dummy in
  Array.blit t.a 0 a' 0 t.len;
  t.a <- a'

let[@inline] push t x =
  if t.len = Array.length t.a then grow t;
  t.a.(t.len) <- x;
  t.len <- t.len + 1

let[@inline] get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.a.(i)

let clear t = t.len <- 0
let is_empty t = t.len = 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.a.(i)
  done

let iter_rev f t =
  for i = t.len - 1 downto 0 do
    f t.a.(i)
  done

let exists p t =
  let rec go i = i < t.len && (p t.a.(i) || go (i + 1)) in
  go 0

let to_array t = Array.sub t.a 0 t.len
