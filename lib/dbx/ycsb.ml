type access = Read | Write

type txn = { keys : int array; ops : access array }

let accesses_per_txn = 16

let contention_theta = function `High -> 0.9 | `Medium -> 0.6 | `Low -> 0.

type gen = {
  zipf : Util.Zipf.t;
  rng : Util.Sprng.t;
  write_ratio : float;
  txn : txn; (* reused across calls; callers consume before next () *)
}

let make_gen ?(seed = 7) ~num_keys ~theta ~write_ratio () =
  {
    zipf = Util.Zipf.create ~seed ~n:num_keys ~theta ();
    rng = Util.Sprng.create (seed * 31 + 1);
    write_ratio;
    txn =
      {
        keys = Array.make accesses_per_txn 0;
        ops = Array.make accesses_per_txn Read;
      };
  }

(* Monomorphic on purpose: a polymorphic helper compiles [<>] to
   [caml_notequal]. *)
let rec has_key (keys : int array) k j =
  j > 0 && (keys.(j - 1) = k || has_key keys k (j - 1))

let next g =
  let t = g.txn in
  for i = 0 to accesses_per_txn - 1 do
    (* Reject duplicate keys within the transaction (at most 100 redraws). *)
    let k = ref (Util.Zipf.next g.zipf) in
    let attempts = ref 0 in
    while !attempts < 100 && has_key t.keys !k i do
      k := Util.Zipf.next g.zipf;
      incr attempts
    done;
    t.keys.(i) <- !k;
    (* [Util.Sprng.float], written out: a float returned across modules
       is boxed. *)
    let u = float_of_int (Util.Sprng.bits g.rng) /. float_of_int max_int in
    t.ops.(i) <- (if u < g.write_ratio then Write else Read)
  done;
  t
