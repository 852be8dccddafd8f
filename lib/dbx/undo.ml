type t = {
  mutable images : Bytes.t; (* pre-image [i] at [i * Table.tuple_size] *)
  rids : int Util.Vec.t;
  rid : int -> int; (* [Util.Vec.get rids], built once *)
}

let create () =
  let rids = Util.Vec.create ~capacity:Ycsb.accesses_per_txn ~dummy:(-1) () in
  {
    images = Bytes.create (Ycsb.accesses_per_txn * Table.tuple_size);
    rids;
    rid = Util.Vec.get rids;
  }

let clear u = Util.Vec.clear u.rids
let length u = Util.Vec.length u.rids
let is_empty u = Util.Vec.is_empty u.rids
let rid u = u.rid

let[@inline never] grow u off =
  let bigger = Bytes.create (2 * off) in
  Bytes.blit u.images 0 bigger 0 off;
  u.images <- bigger

let[@inline] save u table rid =
  let off = Util.Vec.length u.rids * Table.tuple_size in
  if off = Bytes.length u.images then grow u off;
  Bytes.blit (Table.payload table rid) 0 u.images off Table.tuple_size;
  Util.Vec.push u.rids rid

let restore u table =
  for i = Util.Vec.length u.rids - 1 downto 0 do
    Bytes.blit u.images (i * Table.tuple_size)
      (Table.payload table (Util.Vec.get u.rids i))
      0 Table.tuple_size
  done
