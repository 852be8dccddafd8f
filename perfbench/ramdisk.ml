(* The log device of the ycsb-durable workload: files held in memory,
   behind the same [Wal_io.t] record the WAL uses for real files, with
   every flush (file or directory fsync) modelled as a fixed sleep.

   Why not the real disk: on a shared virtual machine an ext4 fsync was
   measured swinging 3-5x within minutes with other machines' disk
   traffic, far beyond any bound a regression could be judged by
   (README.md, "Why the log device is modelled").
   [Sim_fs] would remove the disk but copies the whole file on every
   fsync.  Here writes are memory copies and a flush always takes the
   same time; the sleep blocks the log writer as a real fsync does, so
   group commit still amortises it. *)

module Wal_io = Twoplsf_wal.Wal_io

let flush_s = 100e-6

type node = { mutable data : Bytes.t; mutable len : int }

let flush () = Unix.sleepf flush_s

let create () : Wal_io.t =
  let files : (string, node) Hashtbl.t = Hashtbl.create 16 in
  let mu = Mutex.create () in
  let locked f = Mutex.protect mu f in
  let find path =
    match Hashtbl.find_opt files path with
    | Some n -> n
    | None -> raise (Unix.Unix_error (Unix.ENOENT, "open", path))
  in
  let handle path (n : node) : Wal_io.file =
    let rpos = ref 0 in
    {
      f_path = path;
      f_write =
        (fun b ~pos ~len ->
          locked (fun () ->
              if n.len + len > Bytes.length n.data then begin
                let d = Bytes.create (max (n.len + len) (2 * Bytes.length n.data)) in
                Bytes.blit n.data 0 d 0 n.len;
                n.data <- d
              end;
              Bytes.blit b pos n.data n.len len;
              n.len <- n.len + len;
              len));
      f_read =
        (fun b ~pos ~len ->
          locked (fun () ->
              let k = max 0 (min len (n.len - !rpos)) in
              Bytes.blit n.data !rpos b pos k;
              rpos := !rpos + k;
              k));
      f_size = (fun () -> n.len);
      f_truncate = (fun k -> locked (fun () -> n.len <- min n.len k));
      f_fsync = flush;
      f_close = ignore;
    }
  in
  {
    io_name = "ramdisk";
    io_mkdir = ignore;
    io_readdir =
      (fun dir ->
        locked (fun () ->
            Hashtbl.fold
              (fun path _ acc ->
                if Filename.dirname path = dir then Filename.basename path :: acc else acc)
              files []
            |> Array.of_list));
    io_exists = (fun path -> locked (fun () -> Hashtbl.mem files path));
    io_create =
      (fun path ->
        let n = { data = Bytes.create 65536; len = 0 } in
        locked (fun () -> Hashtbl.replace files path n);
        handle path n);
    io_open_ro = (fun path -> handle path (locked (fun () -> find path)));
    io_open_rw = (fun path -> handle path (locked (fun () -> find path)));
    io_rename =
      (fun src dst ->
        locked (fun () ->
            let n = find src in
            Hashtbl.remove files src;
            Hashtbl.replace files dst n));
    io_unlink = (fun path -> locked (fun () -> Hashtbl.remove files path));
    io_fsync_dir = (fun _ -> flush ());
    io_metrics = (fun () -> []);
  }
