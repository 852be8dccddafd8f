(* conflictmap — render the conflict-cartography section of a
   BENCH_*.json artifact (schema v2+, from `bench --conflict-map --bench-out`)
   as a ranked per-lock hotspot table plus the victim×aborter abort
   heatmap (DESIGN.md §13).

     conflictmap BENCH.json [--top N] [--min-share PCT] [--scope NAME]

   Exit codes: 0 = rendered (possibly "no conflict data"), 2 = usage or
   artifact error. *)

module J = Harness.Json

let usage () =
  prerr_endline
    "usage: conflictmap BENCH.json [--top N] [--min-share PCT] [--scope \
     NAME]\n\
    \  --top N          keep only the N heaviest locks per scope (default \
     20)\n\
    \  --min-share PCT  drop locks below PCT% of attributed time (default \
     0)\n\
    \  --scope NAME     render only the named scope (default: all)";
  exit 2

let num_field o k = Option.value ~default:0. (J.num_field o k)
let int_field o k = int_of_float (num_field o k)

(* Shaded cell for the heatmap: edge count bucketed against the matrix
   maximum on a log-ish scale, readable on any terminal. *)
let shade ~max_v v =
  if v = 0 then "   ."
  else if max_v <= 1 then "   #"
  else
    let glyphs = [| "   ·"; "   -"; "   +"; "   *"; "   #" |] in
    let frac = float_of_int v /. float_of_int max_v in
    let i =
      if frac >= 0.75 then 4
      else if frac >= 0.5 then 3
      else if frac >= 0.25 then 2
      else if frac >= 0.05 then 1
      else 0
    in
    glyphs.(i)

let render_scope ~top ~min_share scope =
  let name = Option.value ~default:"?" (J.str_field scope "scope") in
  let total = num_field scope "total_attributed_ns" in
  Printf.printf "== %s ==\n" name;
  Printf.printf
    "attributed %.3f ms total (%.3f ms lock-wait), %d provenance edge(s), \
     asymmetry %.2f\n"
    (total /. 1e6)
    (num_field scope "total_wait_ns" /. 1e6)
    (int_field scope "edges_total")
    (num_field scope "asymmetry");
  (* ---- ranked hotspot table ---- *)
  let locks = Option.value ~default:[] (J.arr_field scope "locks") in
  let share l = 100. *. num_field l "share" in
  let locks =
    List.filteri (fun i _ -> i < top)
      (List.filter (fun l -> share l >= min_share) locks)
  in
  if locks = [] then print_string "no locks above the filters\n"
  else begin
    Printf.printf "%6s %9s %12s %7s %7s %7s %8s %8s\n" "lock" "share"
      "attrib(ms)" "±err%" "waits" "aborts" "read%" "write%";
    List.iter
      (fun l ->
        let w = num_field l "attributed_ns" in
        let rw = num_field l "read_wait_ns"
        and ww = num_field l "write_wait_ns" in
        let wait = rw +. ww in
        let pct x = if wait > 0. then 100. *. x /. wait else 0. in
        Printf.printf "%6d %8.2f%% %12.3f %6.1f%% %7d %7d %7.1f%% %7.1f%%\n"
          (int_field l "lock") (share l) (w /. 1e6)
          (if w > 0. then 100. *. num_field l "err_ns" /. w else 0.)
          (int_field l "hits") (int_field l "aborts") (pct rw) (pct ww))
      locks
  end;
  (* ---- victim × aborter heatmap ---- *)
  let cells = Option.value ~default:[] (J.arr_field scope "matrix") in
  let cells =
    List.filter_map
      (fun c ->
        match c with
        | J.Arr [ J.Num v; J.Num a; J.Num n ] ->
            Some (int_of_float v, int_of_float a, int_of_float n)
        | _ -> None)
      cells
  in
  if cells <> [] then begin
    let tids =
      List.sort_uniq compare
        (List.concat_map
           (fun (v, a, _) -> if a >= 0 then [ v; a ] else [ v ])
           cells)
    in
    let unknown = List.exists (fun (_, a, _) -> a < 0) cells in
    let max_v = List.fold_left (fun m (_, _, n) -> Stdlib.max m n) 0 cells in
    let get v a =
      List.fold_left
        (fun acc (v', a', n) -> if v' = v && a' = a then acc + n else acc)
        0 cells
    in
    print_string "aborts heatmap (rows = victim tid, cols = aborter tid):\n";
    Printf.printf "%6s" "";
    List.iter (fun a -> Printf.printf "%4d" a) tids;
    if unknown then print_string "   ?";
    print_newline ();
    List.iter
      (fun v ->
        let row_any =
          List.exists (fun (v', _, _) -> v' = v) cells
        in
        if row_any then begin
          Printf.printf "%6d" v;
          List.iter (fun a -> print_string (shade ~max_v (get v a))) tids;
          if unknown then print_string (shade ~max_v (get v (-1)));
          print_newline ()
        end)
      tids;
    (* Victims that never abort anyone don't appear in [tids]-as-victims
       check above; print any remaining victim-only rows. *)
    let extra_victims =
      List.sort_uniq compare
        (List.filter_map
           (fun (v, _, _) -> if List.mem v tids then None else Some v)
           cells)
    in
    List.iter
      (fun v ->
        Printf.printf "%6d" v;
        List.iter (fun a -> print_string (shade ~max_v (get v a))) tids;
        if unknown then print_string (shade ~max_v (get v (-1)));
        print_newline ())
      extra_victims
  end;
  print_newline ()

let () =
  let top = ref 20 in
  let min_share = ref 0. in
  let only_scope = ref None in
  let file = ref None in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n when n > 0 -> k n
    | _ ->
        Printf.eprintf "conflictmap: bad %s %S\n" name v;
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--top" :: v :: rest ->
        int_arg "--top" v (fun n -> top := n);
        parse rest
    | "--min-share" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> min_share := f
        | _ ->
            Printf.eprintf "conflictmap: bad --min-share %S\n" v;
            exit 2);
        parse rest
    | "--scope" :: v :: rest ->
        only_scope := Some v;
        parse rest
    | ("-h" | "--help") :: _ -> usage ()
    | f :: _ when String.length f > 0 && f.[0] = '-' ->
        Printf.eprintf "conflictmap: unknown option %s\n" f;
        usage ()
    | f :: rest ->
        if !file <> None then usage ();
        file := Some f;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path = match !file with Some f -> f | None -> usage () in
  match J.parse_file path with
  | doc -> (
      (match J.int_field doc "schema_version" with
      | Some v when v >= 2 -> ()
      | Some v ->
          Printf.eprintf
            "conflictmap: artifact schema v%d has no conflict section (need \
             v2+, from bench --conflict-map)\n"
            v;
          exit 2
      | None ->
          prerr_endline "conflictmap: not a BENCH artifact";
          exit 2);
      match J.arr_field doc "conflicts" with
      | None | Some [] ->
          print_string
            "no conflict data in artifact (was --conflict-map on?)\n"
      | Some scopes ->
          let scopes =
            match !only_scope with
            | None -> scopes
            | Some want ->
                List.filter
                  (fun s -> J.str_field s "scope" = Some want)
                  scopes
          in
          if scopes = [] then
            print_string "no scope matched the --scope filter\n"
          else
            List.iter (render_scope ~top:!top ~min_share:!min_share) scopes)
  | exception J.Parse_error msg ->
      Printf.eprintf "conflictmap: JSON parse error: %s\n" msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "conflictmap: %s\n" msg;
      exit 2
