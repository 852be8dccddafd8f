module Chaos = Twoplsf_chaos.Chaos

type audit = { total : int; expected : int; leaked : int }

let conserved a = a.total = a.expected
let audit_ok a = conserved a && a.leaked = 0

module Make (S : Stm_intf.STM) = struct
  type t = { accounts : int S.tvar array; initial : int }

  let create ~n ~initial =
    { accounts = Array.init n (fun _ -> S.tvar initial); initial }

  let transfer t rng ~a ~b ~amt =
    let acc = t.accounts in
    if Util.Sprng.int rng 8 = 0 then
      S.atomic ~read_only:true (fun tx ->
          ignore (S.read tx acc.(a));
          ignore (S.read tx acc.(b)))
    else
      S.atomic (fun tx ->
          let va = S.read tx acc.(a) in
          let vb = S.read tx acc.(b) in
          if a <> b then begin
            S.write tx acc.(a) (va - amt);
            S.write tx acc.(b) (vb + amt)
          end)

  let audit t =
    let was_on = !Chaos.on in
    Chaos.on := false;
    Fun.protect
      ~finally:(fun () -> Chaos.on := was_on)
      (fun () ->
        let total =
          S.atomic ~read_only:true (fun tx ->
              Array.fold_left (fun s a -> s + S.read tx a) 0 t.accounts)
        in
        {
          total;
          expected = Array.length t.accounts * t.initial;
          leaked = S.leaked_locks ();
        })
end
