(** Minimal hand-rolled JSON (the build has no JSON library): enough for
    the BENCH_*.json artifacts, [telemetry.json] and schedule traces. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} with an offset on malformed input. *)

val parse_file : string -> t

(** {2 Accessors} — [None] on missing key or wrong shape. *)

val mem : t -> string -> t option
val str_field : t -> string -> string option
val num_field : t -> string -> float option
val int_field : t -> string -> int option
val arr_field : t -> string -> t list option

(** {2 Writing} *)

val to_string : t -> string
(** Compact (single-line) rendering; integral floats print as integers,
    non-finite ones as [null]. *)

val of_counts : (string * int) list -> t
(** Labelled counts as an object of integer fields. *)
