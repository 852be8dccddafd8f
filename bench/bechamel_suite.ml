(* Per-operation micro-latencies via Bechamel: one Test.make per figure,
   measuring the figure's characteristic operation single-threaded under
   2PLSF (and the figure's main optimistic contender where relevant).
   These complement the multi-thread series printed by Figures.* — they
   answer "what does one operation cost?" while the series answer "how
   does it scale?".  The [rwl_sf/] and [stm/] rows price the rungs below
   a structure operation: one read-lock acquire, one transactional
   read; the [dbx/] rows split a YCSB transaction into generating it and
   executing it; [wal/] prices one durable commit's log append and
   acknowledgement, and [util/crc32] the checksum that seals its record
   (852 bytes) and a checkpoint image (per MiB).  Each row prints
   minor-heap words and nanoseconds per operation. *)

open Bechamel

module V = struct
  type t = unit
end

module Ravl_p = Structures.Ravl.Make (Twoplsf.Stm) (V)
module List_p = Structures.Linked_list.Make (Twoplsf.Stm) (V)
module Hash_p = Structures.Hash_map.Make (Twoplsf.Stm) (V)
module Skip_p = Structures.Skiplist.Make (Twoplsf.Stm) (V)
module Zip_p = Structures.Ziptree.Make (Twoplsf.Stm) (V)
module Ravl_tl2 = Structures.Ravl.Make (Baselines.Tl2) (V)
module List_tl2 = Structures.Linked_list.Make (Baselines.Tl2) (V)

let prefill put n =
  for k = 0 to n - 1 do
    if k land 1 = 0 then ignore (put k ())
  done

let counter = ref 0

module Wal = Twoplsf_wal.Wal

(* A log in a fresh temp directory, removed at exit.  [Sync_none]: the
   row prices the append, flush and acknowledgement path, not the
   device; the 1 MB checkpoint threshold bounds the directory. *)
let temp_wal () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "twoplsf_bechamel_wal_%d" (Unix.getpid ()))
  in
  let table = Dbx.Table.create ~num_rows:64 in
  let w =
    Wal.create
      (Wal.config ~sync:Wal.Sync_none ~ckpt_every_bytes:(1 lsl 20) ~dir ())
      (Dbx.Cc_2plsf.wal_store table)
  in
  at_exit (fun () ->
      Wal.stop w;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir);
  w

(* [Ycsb.next] reuses one record, so the execute rungs cycle copies. *)
let draw_txns ~num_keys ~theta n =
  let gen = Dbx.Ycsb.make_gen ~num_keys ~theta ~write_ratio:0.5 () in
  Array.init n (fun _ ->
      let t = Dbx.Ycsb.next gen in
      { Dbx.Ycsb.keys = Array.copy t.keys; ops = Array.copy t.ops })

let next_key range =
  counter := (!counter + 7919) land max_int;
  !counter mod range

(* Rows whose staged function repeats the priced operation this many
   times; they print ns per repetition. *)
let repeats = [ ("per-op/stm/read per access, 64 tvars (2PLSF)", 64) ]

let tests () =
  ignore (Util.Tid.register ());
  let range = 4096 in
  let ravl = Ravl_p.create () in
  prefill (Ravl_p.put ravl) range;
  let ll = List_p.create () in
  prefill (List_p.put ll) 512;
  let ll_tl2 = List_tl2.create () in
  prefill (List_tl2.put ll_tl2) 512;
  let hm = Hash_p.create ~buckets:1024 () in
  prefill (Hash_p.put hm) range;
  let sk = Skip_p.create () in
  prefill (Skip_p.put sk) range;
  let zt = Zip_p.create () in
  prefill (Zip_p.put zt) range;
  let rt = Ravl_tl2.create () in
  prefill (Ravl_tl2.put rt) range;
  let table = Dbx.Table.create ~num_rows:10_000 in
  let cc = Dbx.Cc_2plsf.create table in
  let tid = Util.Tid.get () in
  let gen = Dbx.Ycsb.make_gen ~num_keys:10_000 ~theta:0.6 ~write_ratio:0.5 () in
  let txns = draw_txns ~num_keys:10_000 ~theta:0.6 64 in
  let txn_i = ref 0 in
  (* The cold-row rung: 64 transactions over 10k rows all stay cached,
     4096 over 100k rows at θ=0.9 leave the tail rows to miss. *)
  let cold_table = Dbx.Table.create ~num_rows:100_000 in
  let cold_cc = Dbx.Cc_2plsf.create cold_table in
  let cold_txns = draw_txns ~num_keys:100_000 ~theta:0.9 4096 in
  let cold_i = ref 0 in
  let counters = Array.init 20 (fun _ -> Twoplsf.Stm.tvar 0) in
  (* One table per rung: releasing the fresh lock's word must not
     release the held one. *)
  let held_locks = Twoplsf.Rwl_sf.create ~num_locks:1024 () in
  let held_ctx = Twoplsf.Rwl_sf.make_ctx ~tid in
  ignore (Twoplsf.Rwl_sf.try_or_wait_read_lock held_locks held_ctx 7);
  let fresh_locks = Twoplsf.Rwl_sf.create ~num_locks:1024 () in
  let fresh_ctx = Twoplsf.Rwl_sf.make_ctx ~tid in
  let tvs = Array.init 64 (fun i -> Twoplsf.Stm.tvar i) in
  let wal = temp_wal () in
  let wal_rid i = i * 8 in
  (* 852 bytes: one 8-write commit record of 100-byte rows. *)
  let crc_record = Bytes.make (Twoplsf_wal.Record.size ~nwrites:8 ~row_len:100) 'r' in
  let crc_mib = Bytes.make (1 lsl 20) 'm' in
  [
    Test.make ~name:"rwl_sf/read acquire held lock"
      (Staged.stage (fun () ->
           ignore (Twoplsf.Rwl_sf.try_or_wait_read_lock held_locks held_ctx 7)));
    Test.make ~name:"rwl_sf/read acquire fresh lock + read_unlock_all"
      (Staged.stage (fun () ->
           ignore (Twoplsf.Rwl_sf.try_or_wait_read_lock fresh_locks fresh_ctx 7);
           Twoplsf.Rwl_sf.read_unlock_all fresh_locks fresh_ctx));
    Test.make ~name:"stm/read per access, 64 tvars (2PLSF)"
      (Staged.stage (fun () ->
           Twoplsf.Stm.atomic (fun tx ->
               Array.iter (fun tv -> ignore (Twoplsf.Stm.read tx tv)) tvs)));
    Test.make ~name:"fig2/ravl insert+remove (2PLSF)"
      (Staged.stage (fun () ->
           let k = next_key range in
           ignore (Ravl_p.put ravl k ());
           ignore (Ravl_p.remove ravl k)));
    Test.make ~name:"fig3/list lookup (2PLSF)"
      (Staged.stage (fun () -> ignore (List_p.get ll (next_key 512))));
    Test.make ~name:"fig3/list lookup (TL2)"
      (Staged.stage (fun () -> ignore (List_tl2.get ll_tl2 (next_key 512))));
    Test.make ~name:"fig4/hash insert+remove (2PLSF)"
      (Staged.stage (fun () ->
           let k = next_key range in
           ignore (Hash_p.put hm k ());
           ignore (Hash_p.remove hm k)));
    Test.make ~name:"fig5/skiplist lookup (2PLSF)"
      (Staged.stage (fun () -> ignore (Skip_p.get sk (next_key range))));
    Test.make ~name:"fig6/ziptree insert+remove (2PLSF)"
      (Staged.stage (fun () ->
           let k = next_key range in
           ignore (Zip_p.put zt k ());
           ignore (Zip_p.remove zt k)));
    Test.make ~name:"fig7/ravl lookup (2PLSF)"
      (Staged.stage (fun () -> ignore (Ravl_p.get ravl (next_key range))));
    Test.make ~name:"fig7/ravl lookup (TL2)"
      (Staged.stage (fun () -> ignore (Ravl_tl2.get rt (next_key range))));
    Test.make ~name:"fig8/ravl record update (2PLSF)"
      (Staged.stage (fun () ->
           ignore (Ravl_p.update ravl (next_key range) (fun () -> ()))));
    Test.make ~name:"fig10/pairwise txn 20 counters (2PLSF)"
      (Staged.stage (fun () ->
           Twoplsf.Stm.atomic (fun tx ->
               Array.iter
                 (fun c -> Twoplsf.Stm.write tx c (Twoplsf.Stm.read tx c + 1))
                 counters)));
    Test.make ~name:"dbx/ycsb next"
      (Staged.stage (fun () -> ignore (Dbx.Ycsb.next gen)));
    Test.make ~name:"dbx/execute 16 accesses (2PLSF cc)"
      (Staged.stage (fun () ->
           txn_i := (!txn_i + 1) land 63;
           ignore (Dbx.Cc_2plsf.execute cc ~tid txns.(!txn_i))));
    Test.make ~name:"dbx/execute 16 accesses, 100k rows θ=0.9"
      (Staged.stage (fun () ->
           cold_i := (!cold_i + 1) land 4095;
           ignore (Dbx.Cc_2plsf.execute cold_cc ~tid cold_txns.(!cold_i))));
    Test.make ~name:"util/crc32 852 B"
      (Staged.stage (fun () -> ignore (Util.Crc32.bytes crc_record)));
    Test.make ~name:"util/crc32 1 MiB"
      (Staged.stage (fun () -> ignore (Util.Crc32.bytes crc_mib)));
    Test.make ~name:"wal/commit+ack 8 writes"
      (Staged.stage (fun () ->
           for i = 0 to 7 do
             Wal.mark_dirty wal ~rid:(wal_rid i)
           done;
           let lsn = Wal.log_commit wal ~tid ~n:8 ~rid:wal_rid in
           Wal.wait_durable wal ~lsn));
  ]

let run () =
  print_endline "\n=== Bechamel per-operation suite (single-threaded) ===";
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"per-op" (tests ()) in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock; minor_allocated ]
      grouped
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let ns = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let words = Analyze.all ols Toolkit.Instance.minor_allocated raw in
  (* Per repetition; "n/a" when the fit gave no estimate. *)
  let per_op results name =
    match Option.bind (Hashtbl.find_opt results name) Analyze.OLS.estimates with
    | Some (x :: _) ->
        let n = Option.value ~default:1 (List.assoc_opt name repeats) in
        Printf.sprintf "%.1f" (x /. float n)
    | Some [] | None -> "n/a"
  in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) ns [] in
  List.iter
    (fun name ->
      Printf.printf "%-56s %8s words/op %12s ns/op\n%!" name
        (per_op words name) (per_op ns name))
    (List.sort compare names)
