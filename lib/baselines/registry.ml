let twoplsf : (module Stm_intf.STM) = (module Twoplsf.Stm)

let figure2 : (module Stm_intf.STM) list =
  [ (module Twopl_rw); (module Twopl_rw_dist); (module Twoplsf.Stm) ]

let main_set : (module Stm_intf.STM) list =
  [
    (module Tl2);
    (module Tinystm);
    (module Tlrw);
    (module Orec_lazy);
    (module Onefile);
    (module Twoplsf.Stm);
  ]

(* TicToc-STM is serializable but not opaque: it skips commit validation
   for read-only transactions, so the opacity-assuming batteries and
   benchmarks that iterate [all] would (correctly) fail on it.  [find]
   still resolves it by name. *)
let all : (module Stm_intf.STM) list =
  [
    (module Twoplsf.Stm);
    (module Tl2);
    (module Tinystm);
    (module Tlrw);
    (module Orec_lazy);
    (module Onefile);
    (module Twopl_rw);
    (module Twopl_rw_dist);
    (module Wait_or_die);
    (module Wound_wait);
    (module Twoplsf.Stm_wb);
    (module Twoplsf.Stm_wbd);
  ]

module Chaos = Twoplsf_chaos.Chaos

(* Shadow [atomic] with transaction-body fault-injection sites.  These are
   the only places chaos raises a user-visible exception
   ([Chaos.Injected_fault]): outside every protocol-internal critical
   section, so the STM's own exception path must clean up completely —
   which is exactly the property the chaos tests assert. *)
module Chaos_wrap (S : Stm_intf.STM) : Stm_intf.STM = struct
  include S

  let atomic ?read_only f =
    if not !Chaos.on then S.atomic ?read_only f
    else
      S.atomic ?read_only (fun tx ->
          Chaos.point Chaos.Txn_body;
          Chaos.inject_exn Chaos.Txn_body;
          let v = f tx in
          Chaos.point Chaos.Pre_commit;
          v)
end

let chaos_wrap (module S : Stm_intf.STM) : (module Stm_intf.STM) =
  (module Chaos_wrap (S))

let named = all @ [ (module Tictoc_stm : Stm_intf.STM) ]
let names = List.map (fun (module S : Stm_intf.STM) -> S.name) named

let find name =
  let has (module S : Stm_intf.STM) = String.equal S.name name in
  match List.find_opt has named with
  | Some s -> s
  | None -> raise Not_found
