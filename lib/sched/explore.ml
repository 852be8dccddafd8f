(* The exploration driver: iterate seeded PCT schedules over a scenario
   until a checker violation appears, then shrink and package the
   failing schedule as a Trace.t. *)

type params = {
  scenario : Trace.scenario;
  iters : int;
  depth : int;
  seed : int;
  max_steps : int;
  max_shrink_trials : int;
}

let default_params =
  {
    scenario = Trace.default_scenario;
    iters = 200;
    depth = 3;
    seed = 1;
    max_steps = 20_000;
    max_shrink_trials = 300;
  }

type found = {
  iteration : int;
  strategy : string;
  failure : Scenario.failure;
  trace : Trace.t;
  original_len : int;
  shrink : Shrink.stats;
}

type result = { found : found option; iterations : int; total_decisions : int }

let search ?(log = fun (_ : string) -> ()) (p : params) =
  let total = ref 0 in
  let found = ref None in
  let iterations = ref 0 in
  (* PCT change points are sampled over an expected schedule length;
     calibrate it from a round-robin probe rather than guessing. *)
  let horizon = ref 512 in
  (try
     for i = 0 to p.iters - 1 do
       let strat, label =
         if i = 0 then (Sched.Round_robin, "round-robin probe")
         else
           let s = Util.Sprng.hash4 p.seed i 0x9C7 2 in
           ( Sched.Pct { seed = s; depth = p.depth; horizon = !horizon },
             Printf.sprintf "pct iter=%d seed=%d depth=%d" i p.seed p.depth )
       in
       let o = Scenario.run ~strategy:strat ~max_steps:p.max_steps p.scenario in
       incr iterations;
       total := !total + o.Scenario.info.Sched.steps;
       if i = 0 then horizon := max 64 o.Scenario.info.Sched.steps;
       match o.Scenario.failure with
       | None -> ()
       | Some failure ->
           log
             (Printf.sprintf "iter %d (%s): %s" i label
                (Scenario.failure_to_string failure));
           let decisions = o.Scenario.info.Sched.decisions in
           let fclass = Scenario.failure_class failure in
           let oracle d =
             match
               Scenario.run
                 ~strategy:(Sched.Fixed { decisions = d })
                 ~max_steps:p.max_steps p.scenario
             with
             | o2 -> (
                 match o2.Scenario.failure with
                 | Some f2 -> String.equal (Scenario.failure_class f2) fclass
                 | None -> false)
             | exception _ -> false
           in
           let shrunk, stats =
             Shrink.shrink ~oracle ~max_trials:p.max_shrink_trials decisions
           in
           let trace =
             {
               Trace.version = Trace.version;
               strategy = label;
               (* The class, not the rendered message: replays compare
                  failure classes, and messages embed run-specific
                  values (sums, txn ids). *)
               failure = Some fclass;
               scenario = p.scenario;
               decisions = shrunk;
             }
           in
           found :=
             Some
               {
                 iteration = i;
                 strategy = label;
                 failure;
                 trace;
                 original_len = Array.length decisions;
                 shrink = stats;
               };
           raise Exit
     done
   with Exit -> ());
  { found = !found; iterations = !iterations; total_decisions = !total }

type verdict =
  | Clean
  | Reproduced of Scenario.failure
  | Nondeterministic of int * int
  | Mismatch of { recorded : string option; observed : string option }

let replay (t : Trace.t) =
  let run () =
    Scenario.run
      ~strategy:(Sched.Fixed { decisions = t.Trace.decisions })
      t.Trace.scenario
  in
  let o1 = run () in
  let o2 = run () in
  if o1.Scenario.history_hash <> o2.Scenario.history_hash then
    Nondeterministic (o1.Scenario.history_hash, o2.Scenario.history_hash)
  else
    let observed = Option.map Scenario.failure_class o1.Scenario.failure in
    match (t.Trace.failure, o1.Scenario.failure) with
    | None, None -> Clean
    | Some recorded, Some f when observed = Some recorded -> Reproduced f
    | recorded, _ -> Mismatch { recorded; observed }

let verdict_to_string = function
  | Clean -> "clean, as recorded"
  | Reproduced f ->
      "recorded failure reproduced: " ^ Scenario.failure_to_string f
  | Nondeterministic (h1, h2) ->
      Printf.sprintf "replay not deterministic: history hashes %x and %x" h1
        h2
  | Mismatch { recorded = Some _; observed = None } ->
      "recorded failure did not reproduce"
  | Mismatch { recorded; observed } ->
      let show = Option.value ~default:"none" in
      Printf.sprintf "outcome does not match the recording: recorded %s, got %s"
        (show recorded) (show observed)
