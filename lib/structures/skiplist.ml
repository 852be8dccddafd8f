module Make (S : Stm_intf.STM) (V : Map_intf.VALUE) = struct
  let name = "skip-list"

  type tx = S.tx
  type value = V.t

  type node = {
    key : int;
    value : value S.tvar;
    next : node option S.tvar array; (* length = tower height *)
  }

  type t = { head : node; max_level : int }

  let mk_node k v level =
    { key = k; value = S.tvar v; next = Array.init level (fun _ -> S.tvar None) }

  let create ?(max_level = 20) () =
    if max_level <= 0 then invalid_arg "Skiplist.create";
    (* The head sentinel compares below every key; its value is never read. *)
    { head = mk_node min_int (Obj.magic 0 : value) max_level; max_level }

  let rng_key =
    Domain.DLS.new_key (fun () ->
        Util.Sprng.create (1 + (Domain.self () :> int)))

  (* Geometric tower height: p = 1/2 per extra level. *)
  let random_level t =
    let rng = Domain.DLS.get rng_key in
    let bits = Util.Sprng.bits rng in
    let rec count lvl bits =
      if lvl >= t.max_level || bits land 1 = 0 then lvl
      else count (lvl + 1) (bits lsr 1)
    in
    count 1 bits

  (* Per level, the last node with key < k.  [preds.(i)] is that node at
     level i; returns the level-0 successor. *)
  let find tx t k =
    let preds = Array.make t.max_level t.head in
    let succ0 = ref None in
    let rec down level node =
      if level < 0 then ()
      else begin
        let rec forward node =
          match S.read tx node.next.(level) with
          | Some n when n.key < k -> forward n
          | s -> (node, s)
        in
        let pred, succ = forward node in
        preds.(level) <- pred;
        if level = 0 then succ0 := succ;
        down (level - 1) pred
      end
    in
    down (t.max_level - 1) t.head;
    (preds, !succ0)

  let get_tx tx t k =
    (* Lookup needs no predecessor bookkeeping: straight descent. *)
    let rec down level node =
      if level < 0 then None
      else begin
        let rec forward node =
          match S.read tx node.next.(level) with
          | Some n when n.key < k -> forward n
          | s -> (node, s)
        in
        let pred, succ = forward node in
        match succ with
        | Some n when n.key = k -> Some n
        | Some _ | None -> down (level - 1) pred
      end
    in
    match down (t.max_level - 1) t.head with
    | Some n -> Some (S.read tx n.value)
    | None -> None

  let put_tx tx t k v =
    let preds, succ0 = find tx t k in
    match succ0 with
    | Some n when n.key = k ->
        S.write tx n.value v;
        false
    | Some _ | None ->
        let level = random_level t in
        let node = mk_node k v level in
        for i = 0 to level - 1 do
          S.write tx node.next.(i) (S.read tx preds.(i).next.(i));
          S.write tx preds.(i).next.(i) (Some node)
        done;
        true

  let remove_tx tx t k =
    let preds, succ0 = find tx t k in
    match succ0 with
    | Some n when n.key = k ->
        let level = Array.length n.next in
        for i = level - 1 downto 0 do
          (match S.read tx preds.(i).next.(i) with
          | Some m when m == n -> S.write tx preds.(i).next.(i) (S.read tx n.next.(i))
          | Some _ | None -> ())
        done;
        true
    | Some _ | None -> false

  let update_tx tx t k f =
    let _, succ0 = find tx t k in
    match succ0 with
    | Some n when n.key = k ->
        S.write tx n.value (f (S.read tx n.value));
        true
    | Some _ | None -> false

  let put t k v = S.atomic (fun tx -> put_tx tx t k v)
  let get t k = S.atomic ~read_only:true (fun tx -> get_tx tx t k)
  let contains t k = get t k <> None
  let remove t k = S.atomic (fun tx -> remove_tx tx t k)
  let update t k f = S.atomic (fun tx -> update_tx tx t k f)

  let fold_tx tx t f acc =
    let rec go cur acc =
      match S.read tx cur.next.(0) with
      | None -> acc
      | Some n -> go n (f n.key (S.read tx n.value) acc)
    in
    go t.head acc

  let check_invariants t =
    S.atomic ~read_only:true (fun tx ->
        let ok = ref true in
        let keys_at level =
          let rec go node acc =
            match S.read tx node.next.(level) with
            | None -> List.rev acc
            | Some n ->
                if Array.length n.next <= level then ok := false;
                go n (n.key :: acc)
          in
          go t.head []
        in
        let rec ascending = function
          | a :: (b :: _ as rest) ->
              if a >= b then ok := false;
              ascending rest
          | [ _ ] | [] -> ()
        in
        let rec sublist xs ys =
          match (xs, ys) with
          | [], _ -> true
          | _, [] -> false
          | x :: xs', y :: ys' ->
              if x = y then sublist xs' ys' else sublist xs ys'
        in
        let below = ref (keys_at 0) in
        ascending !below;
        for level = 1 to t.max_level - 1 do
          let ks = keys_at level in
          ascending ks;
          if not (sublist ks !below) then ok := false;
          below := ks
        done;
        !ok)

  let size t = S.atomic ~read_only:true (fun tx -> fold_tx tx t (fun _ _ n -> n + 1) 0)

  let to_list t =
    List.rev
      (S.atomic ~read_only:true (fun tx ->
           fold_tx tx t (fun k v acc -> (k, v) :: acc) []))
end
