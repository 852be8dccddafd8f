(* The four workloads.  Each [build] is run by the leader alone and
   returns a fresh instance; inputs come only from the seed.  README.md
   says why each workload exists. *)

module Stm = Twoplsf.Stm
module Traced_stm = Trace.Traced (Stm)
module Wal = Twoplsf_wal.Wal
open Epochs

type spec = {
  name : string;
  workers : int;
  warm_ops : int;  (* per worker, per set-up *)
  mix : float array;  (* weights of the reference kernel's parts, see Refkernel *)
  cpu_time_mix : float array;  (* the same, for CPU time *)
  build : seed:int -> trace:bool -> rep:int -> instance;
}

(* Counter slots every instance reports (0 where a layer is bypassed). *)
let c_stm_commits = 0
let c_stm_clock_ops = 1
let c_wal_records = 2
let c_wal_fsyncs = 3
let c_wal_bytes = 4
let c_io_write_calls = 5
let c_io_fsyncs = 6
let c_io_fsync_ns = 7
let c_io_ckpts = 8
let c_io_ckpt_ns = 9
let num_counters = 10

let stm_counters () =
  let c = Array.make num_counters 0 in
  c.(c_stm_commits) <- Stm.commits ();
  c.(c_stm_clock_ops) <- Stm.clock_ops ();
  c

(* Reference-kernel weights (chain, chase, stream; see Refkernel), fitted
   to per-epoch measurements on a shared 2-vCPU virtual machine
   (README.md, "Host speed").
   list-read and ycsb-hot track a core/cache/memory mix one for one;
   allocation-bound hash-churn slows about 2.25 times as much as the
   kernel's geometric mean; ycsb-durable spends its time in the modelled
   flush, whose length does not depend on the host, but none of its CPU
   time, which follows the core/cache/memory mix. *)
let cpu_mix = [| 0.2; 0.3; 0.5 |]
let churn_mix = [| 0.75; 0.75; 0.75 |]
let flush_mix = [| 0.; 0.; 0. |]

let rng ~seed ~stream = Util.Sprng.create ((seed * 1_000_003) + stream)

let check name ok detail = (name, ok, detail)

let leaked_check () =
  let n = Stm.leaked_locks () in
  check "leaked_locks" (n = 0) (string_of_int n)

module V = struct
  type t = int
end

(* ---- list-read ------------------------------------------------------ *)

let list_range = 512

module List_read (L : Structures.Map_intf.MAP with type value = int) (C : sig
  val create : unit -> L.t
end) =
struct
  (* Even keys 0, 2, .., 510 are present with value = key; a lookup of k
     must find exactly that. *)
  let make () =
    let t = C.create () in
    for k = 0 to (list_range / 2) - 1 do
      ignore (L.put t (2 * k) (2 * k))
    done;
    t

  let expected k = if k land 1 = 0 then Some k else None
end

module LPlain = Structures.Linked_list.Make (Stm) (V)
module LTraced = Structures.Linked_list.Make (Traced_stm) (V)
module LRP = List_read (LPlain) (LPlain)
module LRT = List_read (LTraced) (LTraced)

let list_read =
  let workers = 2 in
  let build ~seed ~trace ~rep =
    let plain = LRP.make () in
    let traced = if trace then Some (LRT.make ()) else None in
    let rngs = Array.init workers (fun w -> rng ~seed ~stream:((rep * 64) + w)) in
    let keys = Array.make workers 0 in
    let wrong = Array.make workers 0 in
    let prepare w _ = keys.(w) <- Util.Sprng.int rngs.(w) list_range in
    let op w traced_op =
      let k = keys.(w) in
      let r =
        if traced_op then begin
          let a = Trace.current () in
          let s = Trace.op_begin a in
          let r = LTraced.get (Option.get traced) k in
          Trace.op_end a s;
          r
        end
        else LPlain.get plain k
      in
      if r <> LRP.expected k then wrong.(w) <- wrong.(w) + 1
    in
    {
      prepare;
      op;
      counters = stm_counters;
      check =
        (fun () ->
          let bad = Array.fold_left ( + ) 0 wrong in
          [
            check "lookups_match_prefill" (bad = 0) (Printf.sprintf "%d wrong" bad);
            leaked_check ();
          ]);
      teardown = ignore;
    }
  in
  { name = "list-read"; mix = cpu_mix; cpu_time_mix = cpu_mix; workers; warm_ops = 20_000; build }

(* ---- hash-churn ----------------------------------------------------- *)

let churn_range = 10_000
let churn_buckets = 2_500

(* One map's operation stream.  Prefill puts half the range; every later
   draw is a put (value = its sequence number) or a remove, 50/50.  The
   replay walks the same stream into a [Hashtbl]. *)
module Churn (M : Structures.Map_intf.MAP with type value = int) (C : sig
  val create : ?buckets:int -> unit -> M.t
end) =
struct
  type t = { map : M.t; rng : Util.Sprng.t; seed : int; mutable seq : int }

  let prefill_draw rng = Util.Sprng.int rng churn_range

  let make seed =
    let map = C.create ~buckets:churn_buckets () in
    let rng = Util.Sprng.create seed in
    for i = 1 to churn_range / 2 do
      ignore (M.put map (prefill_draw rng) (-i))
    done;
    { map; rng; seed; seq = 0 }

  let draw rng = (Util.Sprng.int rng churn_range, Util.Sprng.bool rng)

  let step t k put =
    t.seq <- t.seq + 1;
    if put then ignore (M.put t.map k t.seq) else ignore (M.remove t.map k)

  let replay t =
    let model = Hashtbl.create churn_range in
    let rng = Util.Sprng.create t.seed in
    for i = 1 to churn_range / 2 do
      Hashtbl.replace model (prefill_draw rng) (-i)
    done;
    for seq = 1 to t.seq do
      let k, put = draw rng in
      if put then Hashtbl.replace model k seq else Hashtbl.remove model k
    done;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

  let matches t = M.to_list t.map = replay t
end

module HPlain = Structures.Hash_map.Make (Stm) (V)
module HTraced = Structures.Hash_map.Make (Traced_stm) (V)
module CP = Churn (HPlain) (HPlain)
module CT = Churn (HTraced) (HTraced)

let hash_churn =
  let build ~seed ~trace ~rep =
    let plain = CP.make ((seed * 1_000_003) + (rep * 2)) in
    let traced = if trace then Some (CT.make ((seed * 1_000_003) + (rep * 2) + 1)) else None in
    let k = ref 0 and put = ref false in
    let prepare _ traced_op =
      let key, p = CP.draw (if traced_op then (Option.get traced).CT.rng else plain.CP.rng) in
      k := key;
      put := p
    in
    let op _ traced_op =
      if traced_op then begin
        let a = Trace.current () in
        let s = Trace.op_begin a in
        CT.step (Option.get traced) !k !put;
        Trace.op_end a s
      end
      else CP.step plain !k !put
    in
    {
      prepare;
      op;
      counters = stm_counters;
      check =
        (fun () ->
          let ok = CP.matches plain && Option.fold ~none:true ~some:CT.matches traced in
          [
            check "contents_match_model" ok
              (Printf.sprintf "%d ops replayed" (plain.CP.seq + Option.fold ~none:0 ~some:(fun t -> t.CT.seq) traced));
            leaked_check ();
          ]);
      teardown = ignore;
    }
  in
  { name = "hash-churn"; mix = churn_mix; cpu_time_mix = churn_mix; workers = 1; warm_ops = 200_000; build }

(* ---- ycsb-hot / ycsb-durable --------------------------------------- *)

let ycsb_rows = 100_000

(* Bytes 0..7 of a row move together under [Cc_intf.write_work]. *)
let rows_consistent table =
  let bad = ref 0 in
  for rid = 0 to Dbx.Table.num_rows table - 1 do
    let p = Dbx.Table.payload table rid in
    let b0 = Bytes.get p 0 in
    for j = 1 to 7 do
      if Bytes.get p j <> b0 then incr bad
    done
  done;
  check "row_bytes_0_7_equal" (!bad = 0) (Printf.sprintf "%d bad bytes" !bad)

let max_restarts = Atomic.make 0

let note_restarts n =
  let rec go () =
    let m = Atomic.get max_restarts in
    if n > m && not (Atomic.compare_and_set max_restarts m n) then go ()
  in
  go ()

type ycsb_state = {
  table : Dbx.Table.t;
  cc : Dbx.Cc_2plsf.t;
  gens : Dbx.Ycsb.gen array;
  txns : Dbx.Ycsb.txn option array;
  gen_t : int array;  (* traced: start and end of the last draw *)
  gen_e : int array;
}

let ycsb_state ~seed ~rep ~theta ~workers =
  let table = Dbx.Table.create ~num_rows:ycsb_rows in
  {
    table;
    cc = Dbx.Cc_2plsf.create table;
    gens =
      Array.init workers (fun w ->
          Dbx.Ycsb.make_gen ~seed:((seed * 1_000_003) + (rep * 64) + w) ~num_keys:ycsb_rows
            ~theta ~write_ratio:0.5 ());
    txns = Array.make workers None;
    gen_t = Array.make workers 0;
    gen_e = Array.make workers 0;
  }

let writes_of (txn : Dbx.Ycsb.txn) =
  Array.fold_left (fun n o -> if o = Dbx.Ycsb.Write then n + 1 else n) 0 txn.ops

let ycsb_ops st =
  let prepare w traced =
    if traced then begin
      st.gen_t.(w) <- Trace.now ();
      st.txns.(w) <- Some (Dbx.Ycsb.next st.gens.(w));
      st.gen_e.(w) <- Trace.now ()
    end
    else st.txns.(w) <- Some (Dbx.Ycsb.next st.gens.(w))
  in
  let op w traced =
    let txn = Option.get st.txns.(w) in
    let aborts = Dbx.Cc_2plsf.execute st.cc ~tid:(Util.Tid.get ()) txn in
    note_restarts aborts;
    if traced then
      Trace.dbx_op (Trace.current ()) ~gen_start:st.gen_t.(w) ~gen_stop:st.gen_e.(w)
        ~exec_stop:(Trace.now ()) ~aborts ~writes:(writes_of txn)
  in
  (prepare, op)

let ycsb_hot =
  let workers = 2 in
  let build ~seed ~trace:_ ~rep =
    let st = ycsb_state ~seed ~rep ~theta:0.9 ~workers in
    let prepare, op = ycsb_ops st in
    {
      prepare;
      op;
      counters = (fun () -> Array.make num_counters 0);
      check = (fun () -> [ rows_consistent st.table ]);
      teardown = ignore;
    }
  in
  { name = "ycsb-hot"; mix = cpu_mix; cpu_time_mix = cpu_mix; workers; warm_ops = 20_000; build }

let ckpt_every_bytes = 8 lsl 20
let wal_dir = "wal"

let ycsb_durable =
  let workers = 1 in
  let build ~seed ~trace ~rep =
    let st = ycsb_state ~seed ~rep ~theta:0.6 ~workers in
    let disk = Ramdisk.create () in
    let io = if trace then Trace.traced_io disk else disk in
    let wal =
      Wal.create
        (Wal.config ~sync:Wal.Sync_fsync ~ckpt_every_bytes ~io ~dir:wal_dir ())
        (Dbx.Cc_2plsf.wal_store st.table)
    in
    Dbx.Cc_2plsf.set_wal st.cc (Some wal);
    let prepare, op = ycsb_ops st in
    let stopped = ref false in
    let stop () =
      if not !stopped then begin
        stopped := true;
        Wal.stop wal
      end
    in
    let counters () =
      let m = Wal.metrics wal in
      let c = Array.make num_counters 0 in
      let get k = try List.assoc k m with Not_found -> 0 in
      c.(c_wal_records) <- get "records";
      c.(c_wal_fsyncs) <- get "fsyncs";
      c.(c_wal_bytes) <- get "bytes";
      c.(c_io_write_calls) <- Trace.io.write_calls;
      c.(c_io_fsyncs) <- Trace.io.fsyncs;
      c.(c_io_fsync_ns) <- Trace.io.fsync_ns;
      c.(c_io_ckpts) <- Trace.io.ckpts;
      c.(c_io_ckpt_ns) <- Trace.io.ckpt_ns;
      c
    in
    let recovered_matches () =
      stop ();
      let fresh = Dbx.Table.create ~num_rows:ycsb_rows in
      ignore (Wal.recover ~io:disk ~dir:wal_dir (Dbx.Cc_2plsf.wal_store fresh));
      let diff = ref 0 in
      for rid = 0 to ycsb_rows - 1 do
        if not (Bytes.equal (Dbx.Table.payload fresh rid) (Dbx.Table.payload st.table rid))
        then incr diff
      done;
      check "recovered_table_matches" (!diff = 0) (Printf.sprintf "%d rows differ" !diff)
    in
    {
      prepare;
      op;
      counters;
      check =
        (fun () ->
          let degraded = Wal.degraded wal in
          [
            rows_consistent st.table;
            check "wal_healthy" (degraded = None) (Option.value ~default:"ok" degraded);
            recovered_matches ();
          ]);
      teardown = stop;
    }
  in
  { name = "ycsb-durable"; mix = flush_mix; cpu_time_mix = cpu_mix; workers; warm_ops = 1_000; build }

let all = [ list_read; hash_churn; ycsb_hot; ycsb_durable ]
