(* The schema-versioned BENCH benchmark artifact, a JSON file (DESIGN.md
   §12): every figure / overload run records its rows here and the bench
   CLI writes them to one machine-readable file when asked to
   ([--bench-out FILE]).  The conflict-map renderer and the crash and
   disk soaks' CI checks read it; speed regressions are judged by
   perfbench, not by comparing artifacts.

   Recording happens on the main thread (the report printer), so plain
   mutable lists suffice.  Schema changes must bump [schema_version] so
   readers can refuse a document they do not understand.

   v1 -> v2: added the "conflicts" section (per-scope conflict
   cartography: hot-lock sketch, abort-provenance matrix, DESIGN.md
   §13).

   v2 -> v3: added the "wal" section (durability counters — crash-soak
   cycle/kill/torn-tail/replay summary, DESIGN.md §15). *)

let schema_version = 3

type latency_entry = {
  l_figure : string;
  l_stm : string;
  l_threads : int;
  l_throughput : float;
  l_p50_ms : float;
  l_p90_ms : float;
  l_p99_ms : float;
  l_max_ms : float;
}

type overload_entry = {
  o_stm : string;
  o_ops : int;
  o_starved : int;
  o_deadline_raises : int;
  o_fallbacks : int;
  o_leaked : int;
  o_sum_ok : bool;
  o_p50_ms : float;
  o_p99_ms : float;
  o_p999_ms : float;
}

let rows : (string * Driver.row) list ref = ref []
let latency_rows : latency_entry list ref = ref []
let overload_rows : overload_entry list ref = ref []
let wal_counters : (string * int) list ref = ref []

let reset () =
  rows := [];
  latency_rows := [];
  overload_rows := [];
  wal_counters := []

let record_row ~figure (r : Driver.row) = rows := (figure, r) :: !rows

let record_latency ~figure ~stm ~threads ~throughput ~p50_ms ~p90_ms ~p99_ms
    ~max_ms =
  latency_rows :=
    {
      l_figure = figure;
      l_stm = stm;
      l_threads = threads;
      l_throughput = throughput;
      l_p50_ms = p50_ms;
      l_p90_ms = p90_ms;
      l_p99_ms = p99_ms;
      l_max_ms = max_ms;
    }
    :: !latency_rows

let record_overload ~stm ~ops ~starved ~deadline_raises ~fallbacks ~leaked
    ~sum_ok ~p50_ms ~p99_ms ~p999_ms =
  overload_rows :=
    {
      o_stm = stm;
      o_ops = ops;
      o_starved = starved;
      o_deadline_raises = deadline_raises;
      o_fallbacks = fallbacks;
      o_leaked = leaked;
      o_sum_ok = sum_ok;
      o_p50_ms = p50_ms;
      o_p99_ms = p99_ms;
      o_p999_ms = p999_ms;
    }
    :: !overload_rows

let record_wal counters = wal_counters := counters

(* Best-effort commit id: .git/HEAD, following one level of symref to
   the loose ref file or, once [git pack-refs] has moved it, to its
   "<hash> <ref>" line in .git/packed-refs. *)
let commit_id () =
  let read path =
    try Some (In_channel.with_open_text path In_channel.input_all)
    with Sys_error _ -> None
  in
  let lines s = List.map String.trim (String.split_on_char '\n' s) in
  let packed r =
    Option.bind (read ".git/packed-refs") (fun s ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ hash; name ] when name = r -> Some hash
            | _ -> None)
          (lines s))
  in
  match Option.map (fun s -> List.hd (lines s)) (read ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some s -> List.hd (lines s)
      | None -> Option.value (packed r) ~default:"unknown")
  | Some head -> head

let phase_sum keys phases =
  List.fold_left
    (fun acc ph ->
      acc
      + Option.value ~default:0
          (List.assoc_opt (Twoplsf_obs.Phase.label ph) phases))
    0 keys

let json_of_row (figure, (r : Driver.row)) =
  let t = r.Driver.telemetry in
  let partition_ns =
    phase_sum Twoplsf_obs.Phase.partition t.Driver.phases
  in
  let wasted_ns =
    phase_sum [ Twoplsf_obs.Phase.Wasted_retry ] t.Driver.phases
  in
  let frac num den = if den > 0 then float_of_int num /. float_of_int den else 0. in
  Json.Obj
    ([
       ("figure", Json.Str figure);
       ("stm", Json.Str r.stm);
       ("structure", Json.Str r.structure);
       ("mix", Json.Str r.mix);
       ("threads", Json.Num (float_of_int r.threads));
       ("throughput", Json.Num r.throughput);
       ("commits", Json.Num (float_of_int r.commits));
       ("aborts", Json.Num (float_of_int r.aborts));
       ("clock_ops", Json.Num (float_of_int r.clock_ops));
     ]
    @
    if t.Driver.phases = [] then []
    else
      [
        ("p50_ns", Json.Num (float_of_int t.p50_ns));
        ("p99_ns", Json.Num (float_of_int t.p99_ns));
        ("p999_ns", Json.Num (float_of_int t.p999_ns));
        ("abort_reasons", Json.of_counts r.abort_reasons);
        ("phases_ns", Json.of_counts t.phases);
        ("txn_total_ns", Json.Num (float_of_int t.txn_total_ns));
        ("phase_coverage", Json.Num (frac partition_ns t.txn_total_ns));
        ("wasted_retry_frac", Json.Num (frac wasted_ns t.txn_total_ns));
      ])

let json_of_latency (l : latency_entry) =
  Json.Obj
    [
      ("figure", Json.Str l.l_figure);
      ("stm", Json.Str l.l_stm);
      ("threads", Json.Num (float_of_int l.l_threads));
      ("throughput", Json.Num l.l_throughput);
      ("p50_ms", Json.Num l.l_p50_ms);
      ("p90_ms", Json.Num l.l_p90_ms);
      ("p99_ms", Json.Num l.l_p99_ms);
      ("max_ms", Json.Num l.l_max_ms);
    ]

let json_of_overload (o : overload_entry) =
  Json.Obj
    [
      ("stm", Json.Str o.o_stm);
      ("ops", Json.Num (float_of_int o.o_ops));
      ("starved", Json.Num (float_of_int o.o_starved));
      ("deadline_raises", Json.Num (float_of_int o.o_deadline_raises));
      ("fallbacks", Json.Num (float_of_int o.o_fallbacks));
      ("leaked", Json.Num (float_of_int o.o_leaked));
      ("sum_ok", Json.Bool o.o_sum_ok);
      ("p50_ms", Json.Num o.o_p50_ms);
      ("p99_ms", Json.Num o.o_p99_ms);
      ("p999_ms", Json.Num o.o_p999_ms);
    ]

(* Conflict-cartography section, read from the live scopes at write
   time (the cartography is cumulative across the whole run).  One
   object per scope with any attributed mass or provenance edges. *)
let json_of_conflicts () =
  let module C = Twoplsf_obs.Conflict in
  let module S = Twoplsf_obs.Scope in
  List.filter_map
    (fun sc ->
      let c = S.conflict sc in
      let total = C.total_weight_ns c in
      let edges = C.edges_total c in
      if total = 0 && edges = 0 then None
      else begin
        let share w =
          if total > 0 then float_of_int w /. float_of_int total else 0.
        in
        let hots = C.top c in
        let locks =
          List.map
            (fun (h : C.hot) ->
              Json.Obj
                [
                  ("lock", Json.Num (float_of_int h.lock));
                  ("attributed_ns", Json.Num (float_of_int h.weight_ns));
                  ("err_ns", Json.Num (float_of_int h.err_ns));
                  ("share", Json.Num (share h.weight_ns));
                  ("hits", Json.Num (float_of_int h.hits));
                  ("read_wait_ns", Json.Num (float_of_int h.read_wait_ns));
                  ("write_wait_ns", Json.Num (float_of_int h.write_wait_ns));
                  ("aborts", Json.Num (float_of_int h.aborts));
                ])
            hots
        in
        (* Non-zero matrix cells as [victim, aborter, count]; aborter -1
           encodes the unknown column. *)
        let m = C.matrix c in
        let cells = ref [] in
        for v = Array.length m - 1 downto 0 do
          let row = m.(v) in
          let unknown = Array.length row - 1 in
          for a = unknown downto 0 do
            if row.(a) > 0 then
              cells :=
                Json.Arr
                  [
                    Json.Num (float_of_int v);
                    Json.Num (float_of_int (if a = unknown then -1 else a));
                    Json.Num (float_of_int row.(a));
                  ]
                :: !cells
          done
        done;
        let top_lock, top_share =
          match hots with
          | h :: _ -> (h.C.lock, share h.C.weight_ns)
          | [] -> (-1, 0.)
        in
        Some
          (Json.Obj
             [
               ("scope", Json.Str (S.name sc));
               ("total_attributed_ns", Json.Num (float_of_int total));
               ( "total_wait_ns",
                 Json.Num (float_of_int (C.total_wait_ns c)) );
               ("edges_total", Json.Num (float_of_int edges));
               ("edges_by_reason", Json.of_counts (C.edges_by_reason c));
               ("asymmetry", Json.Num (C.asymmetry c));
               ("top_lock", Json.Num (float_of_int top_lock));
               ("top_lock_share", Json.Num top_share);
               ("locks", Json.Arr locks);
               ("matrix", Json.Arr !cells);
             ])
      end)
    (S.all ())

let host_json () =
  Json.Obj
    [
      ("hostname", Json.Str (try Unix.gethostname () with _ -> "unknown"));
      ("os", Json.Str Sys.os_type);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("word_size", Json.Num (float_of_int Sys.word_size));
      ( "cores",
        Json.Num (float_of_int (Domain.recommended_domain_count ())) );
    ]

let write ~path ~flags =
  let doc =
    Json.Obj
      ([
        ("schema_version", Json.Num (float_of_int schema_version));
        ("created_at_unix", Json.Num (Unix.time ()));
        ("commit", Json.Str (commit_id ()));
        ("flags", Json.Str flags);
        ("host", host_json ());
        ("telemetry", Json.Bool (Twoplsf_obs.Telemetry.enabled ()));
        ("rows", Json.Arr (List.rev_map json_of_row !rows));
        ("latency_rows", Json.Arr (List.rev_map json_of_latency !latency_rows));
        ("overload", Json.Arr (List.rev_map json_of_overload !overload_rows));
        ("conflicts", Json.Arr (json_of_conflicts ()));
      ]
      @
      (* Absent (not empty) when the run had no WAL. *)
      if !wal_counters = [] then []
      else
        [
          ( "wal",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Num (float_of_int v)))
                 !wal_counters) );
        ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc
