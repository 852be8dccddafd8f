type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;
  rng : Sprng.t;
}

let zeta n theta =
  let sum = ref 0. in
  for i = 1 to n do
    sum := !sum +. (1. /. (float_of_int i ** theta))
  done;
  !sum

let create ?(seed = 42) ~n ~theta () =
  assert (n > 0);
  if theta = 0. then
    { n; theta; alpha = 0.; zetan = 0.; eta = 0.; half_pow_theta = 0.;
      rng = Sprng.create seed }
  else begin
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1. /. (1. -. theta) in
    let eta =
      (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
      /. (1. -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta; half_pow_theta = 0.5 ** theta;
      rng = Sprng.create seed }
  end

let next t =
  if t.theta = 0. then Sprng.int t.rng t.n
  else begin
    (* [Sprng.float], written out: a float returned across modules is boxed. *)
    let u = float_of_int (Sprng.bits t.rng) /. float_of_int max_int in
    let uz = u *. t.zetan in
    if uz < 1. then 0
    else if uz < 1. +. t.half_pow_theta then 1
    else begin
      let v =
        float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.) ** t.alpha)
      in
      let k = int_of_float v in
      if k >= t.n then t.n - 1 else if k < 0 then 0 else k
    end
  end

let theta t = t.theta
