let tuple_size = 100

type t = {
  payloads : Bytes.t array; (* indexed by row id *)
  buckets : int array; (* open addressing: key's slot holds row id, -1 empty *)
  bucket_mask : int;
  keys : int array; (* row id -> key, to verify probe hits *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let hash_key k = (k * 0x2545F4914F6CDD1D) land max_int

let create ~num_rows =
  let cap = next_pow2 (2 * num_rows) in
  let t =
    {
      payloads = Array.init num_rows (fun i -> Bytes.make tuple_size (Char.chr (i land 0xFF)));
      buckets = Array.make cap (-1);
      bucket_mask = cap - 1;
      keys = Array.init num_rows (fun i -> i);
    }
  in
  for rid = 0 to num_rows - 1 do
    let key = t.keys.(rid) in
    let rec place slot =
      if t.buckets.(slot) = -1 then t.buckets.(slot) <- rid
      else place ((slot + 1) land t.bucket_mask)
    in
    place (hash_key key land t.bucket_mask)
  done;
  t

let num_rows t = Array.length t.payloads

let rec probe t key slot =
  match t.buckets.(slot) with
  | -1 -> raise Not_found
  | rid when t.keys.(rid) = key -> rid
  | _ -> probe t key ((slot + 1) land t.bucket_mask)

let lookup t key = probe t key (hash_key key land t.bucket_mask)

let[@inline] payload t rid = t.payloads.(rid)

(* Row ids of [keys] into [rids], with one load from each cache line a
   tuple can span: 100 bytes after an 8-byte-aligned header cover two
   64-byte lines or, at half the offsets the major heap gives them,
   three.  [Sys.opaque_identity] keeps the compiler from dropping loads
   whose values nobody uses.  One call per transaction rather than one
   per key. *)
let resolve t (keys : int array) rids =
  for i = 0 to Array.length keys - 1 do
    let rid = lookup t keys.(i) in
    rids.(i) <- rid;
    let p = t.payloads.(rid) in
    ignore (Sys.opaque_identity (Bytes.get p 0));
    ignore (Sys.opaque_identity (Bytes.get p 64));
    ignore (Sys.opaque_identity (Bytes.get p (tuple_size - 1)))
  done

(* The conserved-transfer workload (crash soak, DESIGN.md §15) treats
   bytes 0..7 of each tuple as a signed 64-bit little-endian balance. *)
let balance t rid = Int64.to_int (Bytes.get_int64_le t.payloads.(rid) 0)
let set_balance t rid v = Bytes.set_int64_le t.payloads.(rid) 0 (Int64.of_int v)
