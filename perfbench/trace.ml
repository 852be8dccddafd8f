(* The traced run's instrumentation, all of it outside the program: a
   wrapper functor around the STM, span and counter recording for calls
   the benchmark makes into [Dbx], and a wrapped [Wal_io.t].

   Each worker owns one [acc] (bound to its domain with {!bind}): counters
   summed at span close, plus a bounded in-memory span buffer written out
   when the run ends.  Spans carry a name, start, stop, parent span and
   operation id; the reads (writes) of one attempt are kept as one
   aggregate span whose [busy] field is the sum of their durations. *)

open Bigarray

let now = Util.Clock.now_ns

type name = Op | Atomic | Attempt | Reads | Writes | Commit | Gen | Execute

let name_string = function
  | Op -> "op"
  | Atomic -> "stm.atomic"
  | Attempt -> "stm.attempt"
  | Reads -> "stm.reads"
  | Writes -> "stm.writes"
  | Commit -> "stm.commit"
  | Gen -> "ycsb.next"
  | Execute -> "dbx.execute"

let names = [| Op; Atomic; Attempt; Reads; Writes; Commit; Gen; Execute |]

let name_index n =
  let rec go i = if names.(i) = n then i else go (i + 1) in
  go 0

(* Span buffer layout: one row of [stride] ints per span. *)
let stride = 7
let f_name = 0 and f_start = 1 and f_stop = 2 and f_parent = 3 and f_op = 4
let f_busy = 5 and f_count = 6
let span_capacity = 1 lsl 15

type acc = {
  spans : (int, int_elt, c_layout) Array1.t;
  mutable nspans : int;
  mutable op_id : int;
  mutable parent : int;  (* span index new spans hang under, -1 = none *)
  (* structures and Stm *)
  mutable ops : int;
  mutable op_ns : int;
  mutable atomics : int;
  mutable attempts : int;
  mutable begin_ns : int;
  mutable commit_ns : int;
  mutable body_self_ns : int;
  mutable reads : int;
  mutable read_ns : int;
  mutable writes : int;
  mutable write_ns : int;
  (* per-attempt scratch *)
  mutable depth : int;
  mutable mark : int;  (* atomic entry, or the end of the last aborted attempt *)
  mutable body_end : int;
  mutable a_reads : int;
  mutable a_read_ns : int;
  mutable a_read_first : int;
  mutable a_read_last : int;
  mutable a_writes : int;
  mutable a_write_ns : int;
  mutable a_write_first : int;
  mutable a_write_last : int;
  (* Dbx *)
  mutable dbx_ops : int;
  exec_hist : Pstats.hist;
  mutable dbx_attempts : int;
  mutable dbx_restarted : int;
  mutable dbx_max_restarts : int;
  mutable gen_ns : int;
  mutable user_bytes : int;
}

let create () =
  {
    spans = Array1.create int c_layout (span_capacity * stride);
    nspans = 0;
    op_id = 0;
    parent = -1;
    ops = 0;
    op_ns = 0;
    atomics = 0;
    attempts = 0;
    begin_ns = 0;
    commit_ns = 0;
    body_self_ns = 0;
    reads = 0;
    read_ns = 0;
    writes = 0;
    write_ns = 0;
    depth = 0;
    mark = 0;
    body_end = 0;
    a_reads = 0;
    a_read_ns = 0;
    a_read_first = 0;
    a_read_last = 0;
    a_writes = 0;
    a_write_ns = 0;
    a_write_first = 0;
    a_write_last = 0;
    dbx_ops = 0;
    exec_hist = Pstats.hist_create ();
    dbx_attempts = 0;
    dbx_restarted = 0;
    dbx_max_restarts = 0;
    gen_ns = 0;
    user_bytes = 0;
  }

let key = Domain.DLS.new_key create
let bind a = Domain.DLS.set key a
let current () = Domain.DLS.get key

(* Reserve a span at open time so children can name it as parent; -1
   once the buffer is full (counters keep running regardless). *)
let open_span a name start =
  if a.nspans >= span_capacity then -1
  else begin
    let i = a.nspans in
    a.nspans <- i + 1;
    let b = i * stride in
    Array1.unsafe_set a.spans (b + f_name) (name_index name);
    Array1.unsafe_set a.spans (b + f_start) start;
    Array1.unsafe_set a.spans (b + f_stop) start;
    Array1.unsafe_set a.spans (b + f_parent) a.parent;
    Array1.unsafe_set a.spans (b + f_op) a.op_id;
    Array1.unsafe_set a.spans (b + f_busy) 0;
    Array1.unsafe_set a.spans (b + f_count) 1;
    i
  end

let close_span a i ?(count = 1) ?busy stop =
  if i >= 0 then begin
    let b = i * stride in
    let start = Array1.unsafe_get a.spans (b + f_start) in
    Array1.unsafe_set a.spans (b + f_stop) stop;
    Array1.unsafe_set a.spans (b + f_busy)
      (match busy with Some x -> x | None -> stop - start);
    Array1.unsafe_set a.spans (b + f_count) count
  end

let aggregate_span a name ~first ~last ~busy ~count =
  let i = open_span a name first in
  close_span a i ~count ~busy last

(* ---- Operations timed by the benchmark ---------------------------- *)

let op_begin a =
  a.op_id <- a.op_id + 1;
  a.parent <- -1;
  let t0 = now () in
  let sp = open_span a Op t0 in
  a.parent <- sp;
  (sp, t0)

let op_end a (sp, t0) =
  let t1 = now () in
  close_span a sp t1;
  a.parent <- -1;
  a.ops <- a.ops + 1;
  a.op_ns <- a.op_ns + (t1 - t0)

(* One [Cc_2plsf.execute] call with the [Ycsb.next] that produced it. *)
let dbx_op a ~gen_start ~gen_stop ~exec_stop ~aborts ~writes =
  a.op_id <- a.op_id + 1;
  let op = open_span a Op gen_start in
  a.parent <- op;
  close_span a (open_span a Gen gen_start) gen_stop;
  close_span a (open_span a Execute gen_stop) exec_stop;
  close_span a op exec_stop;
  a.parent <- -1;
  a.dbx_ops <- a.dbx_ops + 1;
  a.gen_ns <- a.gen_ns + (gen_stop - gen_start);
  Pstats.hist_add a.exec_hist (exec_stop - gen_stop);
  a.dbx_attempts <- a.dbx_attempts + aborts + 1;
  if aborts > 0 then a.dbx_restarted <- a.dbx_restarted + 1;
  if aborts > a.dbx_max_restarts then a.dbx_max_restarts <- aborts;
  a.user_bytes <- a.user_bytes + (writes * Dbx.Table.tuple_size)

(* ---- The STM wrapper ---------------------------------------------- *)

let close_attempt a sp tb te =
  let children = ref [] in
  if a.a_reads > 0 then begin
    aggregate_span a Reads ~first:a.a_read_first ~last:a.a_read_last ~busy:a.a_read_ns
      ~count:a.a_reads;
    children :=
      { Pstats.c_start = a.a_read_first; c_stop = a.a_read_last; c_busy = a.a_read_ns }
      :: !children
  end;
  if a.a_writes > 0 then begin
    aggregate_span a Writes ~first:a.a_write_first ~last:a.a_write_last
      ~busy:a.a_write_ns ~count:a.a_writes;
    children :=
      { Pstats.c_start = a.a_write_first; c_stop = a.a_write_last; c_busy = a.a_write_ns }
      :: !children
  end;
  close_span a sp te;
  a.body_self_ns <- a.body_self_ns + Pstats.self_ns ~start:tb ~stop:te !children;
  a.reads <- a.reads + a.a_reads;
  a.read_ns <- a.read_ns + a.a_read_ns;
  a.writes <- a.writes + a.a_writes;
  a.write_ns <- a.write_ns + a.a_write_ns

module Traced (S : Stm_intf.STM) : Stm_intf.STM = struct
  include S

  let read tx tv =
    let a = current () in
    let t0 = now () in
    let v = S.read tx tv in
    let t1 = now () in
    if a.a_reads = 0 then a.a_read_first <- t0;
    a.a_read_last <- t1;
    a.a_reads <- a.a_reads + 1;
    a.a_read_ns <- a.a_read_ns + (t1 - t0);
    v

  let write tx tv x =
    let a = current () in
    let t0 = now () in
    S.write tx tv x;
    let t1 = now () in
    if a.a_writes = 0 then a.a_write_first <- t0;
    a.a_write_last <- t1;
    a.a_writes <- a.a_writes + 1;
    a.a_write_ns <- a.a_write_ns + (t1 - t0)

  let atomic ?read_only body =
    let a = current () in
    if a.depth > 0 then S.atomic ?read_only body
    else begin
      let t0 = now () in
      let outer = a.parent in
      let sp = open_span a Atomic t0 in
      a.parent <- sp;
      a.mark <- t0;
      a.atomics <- a.atomics + 1;
      a.depth <- 1;
      let attempt tx =
        let tb = now () in
        a.begin_ns <- a.begin_ns + (tb - a.mark);
        a.attempts <- a.attempts + 1;
        a.a_reads <- 0;
        a.a_read_ns <- 0;
        a.a_writes <- 0;
        a.a_write_ns <- 0;
        let asp = open_span a Attempt tb in
        let saved = a.parent in
        a.parent <- asp;
        match body tx with
        | v ->
            let te = now () in
            close_attempt a asp tb te;
            a.parent <- saved;
            a.body_end <- te;
            v
        | exception e ->
            let te = now () in
            close_attempt a asp tb te;
            a.parent <- saved;
            a.mark <- te;
            raise e
      in
      let finish () =
        a.depth <- 0;
        a.parent <- outer
      in
      match S.atomic ?read_only attempt with
      | v ->
          let te = now () in
          close_span a (open_span a Commit a.body_end) te;
          close_span a sp te;
          a.commit_ns <- a.commit_ns + (te - a.body_end);
          finish ();
          v
      | exception e ->
          close_span a sp (now ());
          finish ();
          raise e
    end
end

(* ---- The wrapped log device --------------------------------------- *)

(* Counters of the WAL's I/O, kept by the log-writer domain (the only
   caller once the log is running) and read racily at epoch edges. *)
type io_acc = {
  mutable write_calls : int;
  mutable fsyncs : int;
  mutable fsync_ns : int;
  mutable ckpt_start : int;  (* segment rotation seen, image not yet installed *)
  mutable ckpts : int;
  mutable ckpt_ns : int;
}

let io = { write_calls = 0; fsyncs = 0; fsync_ns = 0; ckpt_start = 0; ckpts = 0; ckpt_ns = 0 }

let is_segment path = Filename.check_suffix path ".seg"

(* [Wal_io.passthrough] with [f_write] and [f_fsync] timed.  A checkpoint
   is the only thing that opens a second segment, and it ends when the
   new image is renamed into place, so those two calls bracket it. *)
let traced_io (base : Twoplsf_wal.Wal_io.t) : Twoplsf_wal.Wal_io.t =
  let wrap (f : Twoplsf_wal.Wal_io.file) =
    {
      f with
      f_write =
        (fun b ~pos ~len ->
          io.write_calls <- io.write_calls + 1;
          f.f_write b ~pos ~len);
      f_fsync =
        (fun () ->
          let t0 = now () in
          f.f_fsync ();
          io.fsync_ns <- io.fsync_ns + (now () - t0);
          io.fsyncs <- io.fsyncs + 1);
    }
  in
  let opened = ref 0 in
  {
    base with
    io_name = "traced(" ^ base.io_name ^ ")";
    io_create =
      (fun path ->
        if is_segment path then begin
          incr opened;
          if !opened > 1 then io.ckpt_start <- now ()
        end;
        wrap (base.io_create path));
    io_rename =
      (fun src dst ->
        base.io_rename src dst;
        if io.ckpt_start > 0 then begin
          io.ckpt_ns <- io.ckpt_ns + (now () - io.ckpt_start);
          io.ckpts <- io.ckpts + 1;
          io.ckpt_start <- 0
        end);
  }

(* ---- Writing the spans out ----------------------------------------- *)

let write_spans path (accs : acc array) =
  let oc = open_out path in
  output_string oc "{\"spans\":[";
  let first = ref true in
  Array.iteri
    (fun w a ->
      for i = 0 to a.nspans - 1 do
        let g f = Array1.get a.spans ((i * stride) + f) in
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"worker\":%d,\"name\":%S,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d,\"busy\":%d,\"count\":%d}"
          w
          (name_string names.(g f_name))
          (g f_start) (g f_stop) (g f_parent) (g f_op) (g f_busy) (g f_count)
      done)
    accs;
  output_string oc "]}\n";
  close_out oc
