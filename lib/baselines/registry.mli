(** First-class-module registry of every STM in the repository.

    Benchmarks and the functorized data-structure test-suites iterate this
    list to run one harness against all concurrency controls. *)

val twoplsf : (module Stm_intf.STM)

val all : (module Stm_intf.STM) list
(** 2PLSF plus every opaque baseline, in the order the paper's figures
    list them, then the extensions (wound-wait, 2PLSF write-back).
    {!Tictoc_stm} is deliberately *not* here: it is serializable but not
    opaque, so the opacity-assuming test batteries and benchmarks that
    iterate this list would (correctly) fail on it — its guarantees are
    exercised separately in [test/test_opacity.ml] and ablation A4. *)

val figure2 : (module Stm_intf.STM) list
(** The three 2PL variants of Figure 2: 2PL-RW, 2PL-RW-Dist, 2PLSF. *)

val main_set : (module Stm_intf.STM) list
(** The STMs plotted in Figures 3–8: TL2, TinySTM, TLRW-Z, OREC-Z, OFWF and
    2PLSF. *)

val names : string list
(** What {!find} resolves: the names of {!all}, then "TicToc-STM". *)

val find : string -> (module Stm_intf.STM)
(** Look an STM up by its [name] among {!all} and {!Tictoc_stm}; raises
    [Not_found]. *)

val chaos_wrap : (module Stm_intf.STM) -> (module Stm_intf.STM)
(** Wrap an STM so every top-level [atomic] body passes through the
    chaos layer's [Txn_body] site: bounded delays/yields/stalls, plus
    injected [Twoplsf_chaos.Chaos.Injected_fault] exceptions that exercise
    the protocol's exception-escape cleanup path.  Free when chaos is
    disabled (one load and a predicted branch, then straight into the
    underlying [atomic]). *)
