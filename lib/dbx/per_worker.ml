(* Slot [tid] is written once, by the domain holding [tid]; a domain that
   takes over a released tid reuses its context, ordered after the first
   owner's writes by the tid registry's atomics. *)
type 'a t = { make : int -> 'a; slots : 'a option array }

let create make = { make; slots = Array.make Util.Tid.max_threads None }

let get t tid =
  match t.slots.(tid) with
  | Some w -> w
  | None ->
      let w = t.make tid in
      t.slots.(tid) <- Some w;
      w

let find t tid = t.slots.(tid)
let count t = Array.fold_left (fun n s -> if Option.is_some s then n + 1 else n) 0 t.slots
