module Make (S : Stm_intf.STM) (V : Map_intf.VALUE) = struct
  let name = "zip-tree"

  type tx = S.tx
  type value = V.t

  type node = {
    key : int;
    rank : int;
    value : value S.tvar;
    left : node option S.tvar;
    right : node option S.tvar;
  }

  type t = { root : node option S.tvar }

  let create () = { root = S.tvar None }

  let rng_key =
    Domain.DLS.new_key (fun () ->
        Util.Sprng.create (7 + (Domain.self () :> int)))

  let random_rank () =
    let rng = Domain.DLS.get rng_key in
    let bits = Util.Sprng.bits rng in
    let rec count r bits =
      if bits land 1 = 1 && r < 60 then count (r + 1) (bits lsr 1) else r
    in
    count 0 bits

  let rec find_node tx cur k =
    match cur with
    | None -> None
    | Some c ->
        if k = c.key then Some c
        else find_node tx (S.read tx (if k < c.key then c.left else c.right)) k

  let get_tx tx t k =
    match find_node tx (S.read tx t.root) k with
    | Some n -> Some (S.read tx n.value)
    | None -> None

  (* Unzip the subtree displaced by an insertion: nodes with keys below
     [xkey] chain down right-spines into [left_link], the rest down
     left-spines into [right_link]. *)
  let rec unzip tx xkey cur left_link right_link =
    match cur with
    | None ->
        S.write tx left_link None;
        S.write tx right_link None
    | Some c ->
        if c.key < xkey then begin
          S.write tx left_link cur;
          unzip tx xkey (S.read tx c.right) c.right right_link
        end
        else begin
          S.write tx right_link cur;
          unzip tx xkey (S.read tx c.left) left_link c.left
        end

  (* Rank order: the parent has strictly higher rank, or equal rank and
     smaller key (the zip-tree tie-break). *)
  let stays_above c ~rank ~key =
    c.rank > rank || (c.rank = rank && c.key < key)

  let put_tx tx t k v =
    (* Descend by the rank rule to the insertion link; if the key shows up
       on the way (it can only be on the search path or in the displaced
       subtree), overwrite instead. *)
    let rec descend link rank =
      match S.read tx link with
      | Some c when c.key = k -> `Exists c
      | Some c when stays_above c ~rank ~key:k ->
          descend (if k < c.key then c.left else c.right) rank
      | cur -> `Insert (link, cur)
    in
    let rank = random_rank () in
    match descend t.root rank with
    | `Exists c ->
        S.write tx c.value v;
        false
    | `Insert (link, displaced) -> (
        match find_node tx displaced k with
        | Some c ->
            S.write tx c.value v;
            false
        | None ->
            let x =
              { key = k; rank; value = S.tvar v; left = S.tvar None; right = S.tvar None }
            in
            S.write tx link (Some x);
            unzip tx k displaced x.left x.right;
            true)

  (* Zip two subtrees (all keys in [l] below all keys in [r]) into one,
     rewriting only the merge spine. *)
  let rec zip tx l r =
    match (l, r) with
    | None, r -> r
    | l, None -> l
    | Some lc, Some rc ->
        if lc.rank >= rc.rank then begin
          let merged = zip tx (S.read tx lc.right) r in
          S.write tx lc.right merged;
          l
        end
        else begin
          let merged = zip tx l (S.read tx rc.left) in
          S.write tx rc.left merged;
          r
        end

  let remove_tx tx t k =
    let rec find_link link =
      match S.read tx link with
      | None -> None
      | Some c ->
          if k = c.key then Some (link, c)
          else find_link (if k < c.key then c.left else c.right)
    in
    match find_link t.root with
    | None -> false
    | Some (link, c) ->
        let merged = zip tx (S.read tx c.left) (S.read tx c.right) in
        S.write tx link merged;
        true

  let update_tx tx t k f =
    match find_node tx (S.read tx t.root) k with
    | Some n ->
        S.write tx n.value (f (S.read tx n.value));
        true
    | None -> false

  let put t k v = S.atomic (fun tx -> put_tx tx t k v)
  let get t k = S.atomic ~read_only:true (fun tx -> get_tx tx t k)
  let contains t k = get t k <> None
  let remove t k = S.atomic (fun tx -> remove_tx tx t k)
  let update t k f = S.atomic (fun tx -> update_tx tx t k f)

  let fold_tx tx t f acc =
    let rec go cur acc =
      match cur with
      | None -> acc
      | Some c ->
          let acc = go (S.read tx c.left) acc in
          let acc = f c.key (S.read tx c.value) acc in
          go (S.read tx c.right) acc
    in
    go (S.read tx t.root) acc

  let check_invariants t =
    S.atomic ~read_only:true (fun tx ->
        let ok = ref true in
        (* parent beats child: higher rank, or equal rank and smaller key *)
        let dominates p c =
          p.rank > c.rank || (p.rank = c.rank && p.key < c.key)
        in
        let rec walk cur lo hi =
          match cur with
          | None -> ()
          | Some c ->
              (match lo with Some l when c.key <= l -> ok := false | _ -> ());
              (match hi with Some h when c.key >= h -> ok := false | _ -> ());
              let l = S.read tx c.left and r = S.read tx c.right in
              (match l with
              | Some lc when not (dominates c lc) -> ok := false
              | Some _ | None -> ());
              (match r with
              | Some rc when not (dominates c rc) -> ok := false
              | Some _ | None -> ());
              walk l lo (Some c.key);
              walk r (Some c.key) hi
        in
        walk (S.read tx t.root) None None;
        !ok)

  let size t = S.atomic ~read_only:true (fun tx -> fold_tx tx t (fun _ _ n -> n + 1) 0)

  let to_list t =
    List.rev
      (S.atomic ~read_only:true (fun tx ->
           fold_tx tx t (fun k v acc -> (k, v) :: acc) []))
end
