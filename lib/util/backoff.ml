(* [started] is 0 until the first [once]; [sleeps] counts the sleeps taken
   after the spin budget ran out. *)
type t = { mutable started : int; mutable sleeps : int }

let create () = { started = 0; sleeps = 0 }

(* The spin budget: median cost of 5 minimal sleeps, measured once per
   process on first use.  An [int Atomic.t] rather than [Lazy]: two
   domains forcing one lazy value at once raise
   [CamlinternalLazy.Undefined].  Racing first callers both measure and
   both store a valid budget. *)
let unmeasured = -1
let budget = Atomic.make unmeasured

let measure () =
  let samples =
    Array.init 5 (fun _ ->
        let t0 = Clock.now_ns () in
        Unix.sleepf 1e-6;
        Clock.now_ns () - t0)
  in
  Array.sort compare samples;
  (* Capped so a host whose sleeps overshoot badly (a loaded machine)
     cannot turn every wait into milliseconds of spinning. *)
  let b = Stdlib.min samples.(2) 1_000_000 in
  Atomic.set budget b;
  b

let spin_budget_ns () =
  let b = Atomic.get budget in
  if b = unmeasured then measure () else b

let once t =
  if t.started = 0 then begin
    t.started <- Clock.now_ns ();
    Domain.cpu_relax ()
  end
  else if t.sleeps = 0 && Clock.now_ns () - t.started < spin_budget_ns () then
    Domain.cpu_relax ()
  else begin
    (* Cap the sleep so a waiter notices lock release promptly. *)
    t.sleeps <- t.sleeps + 1;
    Unix.sleepf (1e-6 *. float_of_int (Stdlib.min t.sleeps 20))
  end

let exponential ~attempt =
  if attempt <= 1 then Domain.cpu_relax ()
  else begin
    let e = Stdlib.min attempt 9 in
    Unix.sleepf (1e-6 *. float_of_int (1 lsl e))
  end
