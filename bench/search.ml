(* The schedule scenario (--scenario explore, DESIGN.md §14): a PCT
   search per STM over the shared scenario shape, or the deterministic
   replay of one recorded witness. *)

module Scenario = Twoplsf_sched.Scenario
module Explore = Twoplsf_sched.Explore
module Trace = Twoplsf_sched.Trace

(* Search [cycles] schedules per STM; a violation is shrunk and its
   witness saved.  Returns the number of STMs with a violation. *)
let run ~stms ~bug ~threads ~seed ~cycles =
  Printf.printf "Schedule exploration: %d PCT schedules per STM, threads=%d, \
                 seed=%d%s\n%!"
    cycles threads seed
    (match bug with Some b -> ", bug " ^ b | None -> "");
  let failed stm =
    let scenario =
      { Trace.default_scenario with Trace.stm; threads; wseed = seed; bug }
    in
    let params =
      { Explore.default_params with Explore.scenario; iters = cycles; seed }
    in
    let r = Explore.search params in
    match r.Explore.found with
    | None ->
        Printf.printf "  %-14s ok (%d schedules, %d decisions)\n%!" stm
          r.Explore.iterations r.Explore.total_decisions;
        false
    | Some f ->
        let path =
          Printf.sprintf "explore-%s%s.json" stm
            (match bug with Some b -> "-" ^ b | None -> "")
        in
        Trace.save path f.Explore.trace;
        let s = f.Explore.shrink in
        Printf.printf
          "  %-14s VIOLATION at iteration %d (%s): %s\n\
          \  %-14s shrunk %d -> %d decisions in %d replays; witness %s\n%!"
          stm f.Explore.iteration f.Explore.strategy
          (Scenario.failure_to_string f.Explore.failure)
          "" s.Twoplsf_sched.Shrink.from_len s.Twoplsf_sched.Shrink.to_len
          s.Twoplsf_sched.Shrink.trials path;
        true
  in
  List.length (List.filter failed stms)

(* Replay a witness; the exit code is 0 clean as recorded, 1 recorded
   failure reproduced, 3 nondeterministic or not as recorded. *)
let replay t ~path =
  Printf.printf "replaying %s on %s (recorded: %s)\n%!" path
    t.Trace.scenario.Trace.stm
    (Option.value t.Trace.failure ~default:"no failure");
  let v = Explore.replay t in
  Printf.printf "  %s\n%!" (Explore.verdict_to_string v);
  match v with
  | Explore.Clean -> 0
  | Explore.Reproduced _ -> 1
  | Explore.Nondeterministic _ | Explore.Mismatch _ -> 3
