type t = bool Atomic.t

let create () = Atomic.make false

let try_lock t = (not (Atomic.get t)) && Atomic.compare_and_set t false true

let lock t =
  if not (try_lock t) then begin
    let b = Util.Backoff.create () in
    while not (try_lock t) do
      Util.Backoff.once b
    done
  end

let unlock t = Atomic.set t false

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e
