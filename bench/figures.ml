(* One function per figure of the paper's evaluation section; each prints
   the same series the paper plots.  See DESIGN.md §2 for the experiment
   index and EXPERIMENTS.md for paper-vs-measured notes. *)

type params = {
  threads : int list;
  seconds : float;
  big : bool; (* paper-scale key ranges instead of the scaled defaults *)
  runs : int; (* mean over N runs per point (the paper uses 5 x 20 s) *)
  stms : string list; (* STM or DBx CC names to run; [] = every series *)
}

let stm_name (module S : Stm_intf.STM) = S.name

(* The figure's series narrowed to [p.stms]. *)
let pick_stms p l =
  if p.stms = [] then l
  else List.filter (fun s -> List.mem (stm_name s) p.stms) l

let pick_ccs p l =
  if p.stms = [] then l else List.filter (fun (n, _) -> List.mem n p.stms) l

(* Mean over [p.runs] repetitions of one data point (throughput averaged;
   counters summed across runs). *)
let merge_reasons a b =
  match (a, b) with
  | [], r | r, [] -> r
  | a, b -> List.map2 (fun (label, x) (_, y) -> (label, x + y)) a b

let averaged p f =
  let rows = List.init (Stdlib.max 1 p.runs) (fun _ -> f ()) in
  match rows with
  | [] -> assert false
  | first :: _ ->
      let n = float_of_int (List.length rows) in
      {
        first with
        Harness.Driver.throughput =
          List.fold_left (fun a (r : Harness.Driver.row) -> a +. r.throughput) 0. rows /. n;
        commits = List.fold_left (fun a (r : Harness.Driver.row) -> a + r.commits) 0 rows;
        aborts = List.fold_left (fun a (r : Harness.Driver.row) -> a + r.aborts) 0 rows;
        clock_ops = List.fold_left (fun a (r : Harness.Driver.row) -> a + r.clock_ops) 0 rows;
        abort_reasons =
          List.fold_left
            (fun a (r : Harness.Driver.row) -> merge_reasons a r.abort_reasons)
            [] rows;
        (* Phase times and txn totals sum across runs (they are extensive,
           like the counters); latency percentiles keep the worst run. *)
        telemetry =
          List.fold_left
            (fun (a : Harness.Driver.txn_telemetry) (r : Harness.Driver.row) ->
              let t = r.telemetry in
              {
                Harness.Driver.phases = merge_reasons a.phases t.phases;
                txn_total_ns = a.txn_total_ns + t.txn_total_ns;
                p50_ns = Stdlib.max a.p50_ns t.p50_ns;
                p99_ns = Stdlib.max a.p99_ns t.p99_ns;
                p999_ns = Stdlib.max a.p999_ns t.p999_ns;
              })
            Harness.Driver.no_telemetry rows;
      }

let set_mixes =
  [ Harness.Workload.write_heavy; Harness.Workload.read_mostly; Harness.Workload.read_only ]

let run_set_series p ~structure ~range stms =
  Harness.Report.row_header ();
  List.iter
    (fun mix ->
      List.iter
        (fun stm ->
          List.iter
            (fun threads ->
              let row =
                averaged p (fun () ->
                    Harness.Driver.run_set_bench ~stm ~structure ~mix ~range
                      ~threads ~seconds:p.seconds)
              in
              Harness.Report.row row)
            p.threads)
        (pick_stms p stms))
    set_mixes

let tree_range p = if p.big then 100_000 else 10_000

let figure2 p =
  Harness.Report.figure_header ~id:"Figure 2"
    ~title:"RAVL tree under 2PL-RW / 2PL-RW-Dist / 2PLSF (3 workloads)";
  run_set_series p ~structure:Harness.Driver.Ravl_s ~range:(tree_range p)
    Baselines.Registry.figure2

let figure3 p =
  Harness.Report.figure_header ~id:"Figure 3"
    ~title:"Linked-list set, all STMs (3 workloads)";
  run_set_series p ~structure:Harness.Driver.List_s ~range:512
    Baselines.Registry.main_set

let figure4 p =
  Harness.Report.figure_header ~id:"Figure 4"
    ~title:"Hash-set, all STMs (3 workloads)";
  run_set_series p ~structure:Harness.Driver.Hash_s ~range:10_000
    Baselines.Registry.main_set

let figure5 p =
  Harness.Report.figure_header ~id:"Figure 5"
    ~title:"Skip list, all STMs (3 workloads)";
  run_set_series p ~structure:Harness.Driver.Skip_s ~range:(tree_range p)
    Baselines.Registry.main_set

let figure6 p =
  Harness.Report.figure_header ~id:"Figure 6"
    ~title:"Zip tree, all STMs (3 workloads)";
  run_set_series p ~structure:Harness.Driver.Zip_s ~range:(tree_range p)
    Baselines.Registry.main_set

let figure7 p =
  Harness.Report.figure_header ~id:"Figure 7"
    ~title:"Relaxed AVL tree, all STMs (3 workloads)";
  run_set_series p ~structure:Harness.Driver.Ravl_s ~range:(tree_range p)
    Baselines.Registry.main_set

let figure8 p =
  Harness.Report.figure_header ~id:"Figure 8"
    ~title:"Key/value maps, 1%i/1%r/98%u on 100-byte records";
  Harness.Report.row_header ();
  List.iter
    (fun structure ->
      List.iter
        (fun stm ->
          List.iter
            (fun threads ->
              let row =
                averaged p (fun () ->
                    Harness.Driver.run_map_bench ~stm ~structure
                      ~range:(tree_range p) ~threads ~seconds:p.seconds)
              in
              Harness.Report.row row)
            p.threads)
        (pick_stms p Baselines.Registry.main_set))
    [ Harness.Driver.Skip_s; Harness.Driver.Zip_s; Harness.Driver.Ravl_s ]

(* ---- Figure 10: pair-wise conflict latency (Figure 9 scheme) ---- *)

let latency_stms : (module Stm_intf.STM) list =
  [
    (module Twoplsf.Stm);
    (module Baselines.Tl2);
    (module Baselines.Tinystm);
    (module Baselines.Onefile);
  ]

let counters_per_pair = 20

let run_latency (module S : Stm_intf.STM) ~threads ~seconds =
  let pairs = (threads + 1) / 2 in
  let counters =
    Array.init (pairs * counters_per_pair) (fun _ -> S.tvar 0)
  in
  let lat = Harness.Latency.create ~threads in
  let worker i should_stop =
    let base = i / 2 * counters_per_pair in
    let ascending = i land 1 = 0 in
    let ops = ref 0 in
    while not (should_stop ()) do
      let t0 = Util.Clock.now () in
      S.atomic (fun tx ->
          if ascending then
            for j = 0 to counters_per_pair - 1 do
              S.write tx counters.(base + j) (S.read tx counters.(base + j) + 1)
            done
          else
            for j = counters_per_pair - 1 downto 0 do
              S.write tx counters.(base + j) (S.read tx counters.(base + j) + 1)
            done);
      Harness.Latency.record lat i (Util.Clock.now () -. t0);
      incr ops
    done;
    !ops
  in
  let res = Harness.Exec.run_timed ~threads ~seconds worker in
  let ps = Harness.Latency.percentiles lat [ 50.; 90.; 99. ] in
  let p50 = List.assoc 50. ps
  and p90 = List.assoc 90. ps
  and p99 = List.assoc 99. ps in
  Harness.Report.latency_row ~stm:S.name ~threads ~throughput:res.throughput
    ~p50 ~p90 ~p99 ~max:(Harness.Latency.max_latency lat)

let figure10 p =
  Harness.Report.figure_header ~id:"Figure 10"
    ~title:"Pair-wise conflicting counters: throughput and latency";
  Harness.Report.latency_header ();
  let thread_points =
    List.filter (fun t -> t >= 2) (List.map (fun t -> t / 2 * 2) p.threads)
    |> List.sort_uniq compare
  in
  let thread_points = if thread_points = [] then [ 2 ] else thread_points in
  List.iter
    (fun stm ->
      List.iter (fun threads -> run_latency stm ~threads ~seconds:p.seconds)
        thread_points)
    (pick_stms p latency_stms)

(* ---- Figure 11: YCSB in DBx1000 ---- *)

let figure11 p =
  Harness.Report.figure_header ~id:"Figure 11"
    ~title:"YCSB (DBx1000): high / medium / low contention";
  let num_rows = if p.big then 1_000_000 else 100_000 in
  Printf.printf "%-12s %8s %8s %14s %12s %10s\n%!" "cc" "theta" "threads"
    "txn/s" "commits" "aborts";
  List.iter
    (fun level ->
      let theta = Dbx.Ycsb.contention_theta level in
      let table = Dbx.Table.create ~num_rows in
      List.iter
        (fun (_, cc) ->
          List.iter
            (fun threads ->
              let r =
                Dbx.Runner.run ~cc ~table ~theta ~write_ratio:0.5 ~threads
                  ~seconds:p.seconds
              in
              Printf.printf "%-12s %8.2f %8d %14.0f %12d %10d\n%!" r.cc r.theta
                r.threads r.throughput r.commits r.aborts;
              let nonzero = List.filter (fun (_, n) -> n > 0) r.abort_reasons in
              if nonzero <> [] then
                Printf.printf "  aborts: %s\n%!"
                  (String.concat " "
                     (List.map
                        (fun (label, n) -> Printf.sprintf "%s=%d" label n)
                        nonzero));
              let phases = Harness.Report.phase_breakdown r.telemetry in
              if phases <> "" then Printf.printf "  phases: %s\n%!" phases)
            p.threads)
        (pick_ccs p Dbx.Runner.ccs))
    [ `High; `Medium; `Low ]

(* ---- Ablation A1: on-conflict clock vs per-transaction clock ---- *)

let a1_stms : (module Stm_intf.STM) list =
  [ (module Twoplsf.Stm); (module Baselines.Wait_or_die) ]

let figure12 p =
  Harness.Report.figure_header ~id:"Ablation A1"
    ~title:"2PLSF (clock on conflict) vs 2PL Wait-Or-Die (clock per txn)";
  Harness.Report.row_header ();
  List.iter
    (fun stm ->
      List.iter
        (fun threads ->
          let row =
            Harness.Driver.run_map_bench ~stm ~structure:Harness.Driver.Ravl_s
              ~range:(tree_range p) ~threads ~seconds:p.seconds
          in
          Harness.Report.row row)
        p.threads)
    (pick_stms p a1_stms)

(* ---- Ablation A3: write-through (undo) vs write-back (redo) 2PLSF ---- *)

let a3_stms : (module Stm_intf.STM) list =
  [ (module Twoplsf.Stm); (module Twoplsf.Stm_wb); (module Twoplsf.Stm_wbd) ]

let figure13 p =
  Harness.Report.figure_header ~id:"Ablation A3"
    ~title:"2PLSF write-through (undo) vs write-back eager (WB) vs deferred (WBD)";
  Harness.Report.row_header ();
  List.iter
    (fun stm ->
      List.iter
        (fun threads ->
          Harness.Report.row
            (Harness.Driver.run_set_bench ~stm ~structure:Harness.Driver.Ravl_s
               ~mix:Harness.Workload.write_heavy ~range:(tree_range p) ~threads
               ~seconds:p.seconds);
          Harness.Report.row
            (Harness.Driver.run_map_bench ~stm ~structure:Harness.Driver.Ravl_s
               ~range:(tree_range p) ~threads ~seconds:p.seconds))
        p.threads)
    (pick_stms p a3_stms)

(* ---- Ablation A5: YCSB tail latency (§5's low-tail-latency claim) ---- *)

let figure15 p =
  Harness.Report.figure_header ~id:"Ablation A5"
    ~title:"YCSB tail latency under high contention (theta = 0.9)";
  Harness.Report.latency_header ();
  let num_rows = if p.big then 1_000_000 else 100_000 in
  let table = Dbx.Table.create ~num_rows in
  List.iter
    (fun (_, cc) ->
      List.iter
        (fun threads ->
          let r =
            Dbx.Runner.run_with_latency ~cc ~table ~theta:0.9 ~write_ratio:0.5
              ~threads ~seconds:p.seconds
          in
          Harness.Report.latency_row ~stm:r.base.cc ~threads
            ~throughput:r.base.throughput ~p50:r.p50 ~p90:r.p90 ~p99:r.p99
            ~max:r.max_latency)
        p.threads)
    (pick_ccs p Dbx.Runner.ccs)

(* ---- Ablation A4: the price of opacity (§3.5) ---- *)

let a4_stms : (module Stm_intf.STM) list =
  [ (module Twoplsf.Stm); (module Baselines.Tl2); (module Baselines.Tictoc_stm) ]

let figure14 p =
  Harness.Report.figure_header ~id:"Ablation A4"
    ~title:"Price of opacity: 2PLSF / TL2 (opaque) vs TicToc-STM (serializable only)";
  Harness.Report.row_header ();
  List.iter
    (fun mix ->
      List.iter
        (fun stm ->
          List.iter
            (fun threads ->
              Harness.Report.row
                (Harness.Driver.run_set_bench ~stm
                   ~structure:Harness.Driver.Hash_s ~mix ~range:10_000 ~threads
                   ~seconds:p.seconds))
            p.threads)
        (pick_stms p a4_stms))
    [ Harness.Workload.write_heavy; Harness.Workload.read_mostly ]

(* Number, title, the series names [--stms] may pick from, and the run. *)
let all : (int * string * string list * (params -> unit)) list =
  let stms = List.map stm_name and ccs = List.map fst Dbx.Runner.ccs in
  let main = stms Baselines.Registry.main_set in
  [
    ( 2,
      "RAVL under three 2PL variants",
      stms Baselines.Registry.figure2,
      figure2 );
    (3, "linked-list set", main, figure3);
    (4, "hash set", main, figure4);
    (5, "skip list", main, figure5);
    (6, "zip tree", main, figure6);
    (7, "relaxed AVL tree", main, figure7);
    (8, "map update workload", main, figure8);
    (10, "pairwise-conflict latency", stms latency_stms, figure10);
    (11, "YCSB / DBx1000", ccs, figure11);
    (12, "ablation: conflict clock", stms a1_stms, figure12);
    (13, "ablation: undo vs redo log", stms a3_stms, figure13);
    (14, "ablation: price of opacity", stms a4_stms, figure14);
    (15, "ablation: YCSB tail latency", ccs, figure15);
  ]
