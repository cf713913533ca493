let log_2pi = log (2. *. Float.pi)

module Univariate = struct
  type t = { mu : float; sigma : float }

  let create ~mu ~sigma =
    if sigma < 0. then invalid_arg "Gaussian.Univariate.create: negative sigma";
    { mu; sigma }

  (* Abramowitz & Stegun 7.1.26 rational approximation of erf, accurate
     to ~1.5e-7 — ample for the cdf's only users (tests, summaries). *)
  let erf x =
    let sign = if x < 0. then -1. else 1. in
    let x = Float.abs x in
    let t = 1. /. (1. +. (0.3275911 *. x)) in
    let a1 = 0.254829592
    and a2 = -0.284496736
    and a3 = 1.421413741
    and a4 = -1.453152027
    and a5 = 1.061405429 in
    let poly = t *. (a1 +. (t *. (a2 +. (t *. (a3 +. (t *. (a4 +. (t *. a5)))))))) in
    sign *. (1. -. (poly *. exp (-.x *. x)))

  let cdf { mu; sigma } x =
    if sigma = 0. then if x < mu then 0. else 1.
    else 0.5 *. (1. +. erf ((x -. mu) /. (sigma *. sqrt 2.)))
end

type t = {
  mean : float array;
  cov : Linalg.mat;
  chol : Linalg.mat;
  log_norm : float; (* -(d/2) log 2pi - (1/2) log |cov| *)
}

let create ~mean ~cov =
  let d = Array.length mean in
  if Array.length cov <> d then invalid_arg "Gaussian.create: dimension mismatch";
  let chol = Linalg.cholesky cov in
  let log_det = ref 0. in
  for i = 0 to d - 1 do
    log_det := !log_det +. (2. *. log chol.(i).(i))
  done;
  let log_norm = (-0.5 *. float_of_int d *. log_2pi) -. (0.5 *. !log_det) in
  { mean = Array.copy mean; cov = Linalg.copy cov; chol; log_norm }

let dim t = Array.length t.mean
let mean t = Array.copy t.mean
let cov t = Linalg.copy t.cov

let mahalanobis_sq t x =
  let d = dim t in
  if Array.length x <> d then invalid_arg "Gaussian.mahalanobis_sq: dimension mismatch";
  let diff = Array.init d (fun i -> x.(i) -. t.mean.(i)) in
  (* Solve chol * y = diff; then mahalanobis^2 = |y|^2. *)
  let y = Array.make d 0. in
  for i = 0 to d - 1 do
    let s = ref diff.(i) in
    for k = 0 to i - 1 do
      s := !s -. (t.chol.(i).(k) *. y.(k))
    done;
    y.(i) <- !s /. t.chol.(i).(i)
  done;
  Array.fold_left (fun acc v -> acc +. (v *. v)) 0. y

let log_pdf t x = t.log_norm -. (0.5 *. mahalanobis_sq t x)

let sample t rng =
  let d = dim t in
  let z = Array.init d (fun _ -> Rng.gaussian rng ()) in
  Array.init d (fun i ->
      let s = ref t.mean.(i) in
      for k = 0 to i do
        s := !s +. (t.chol.(i).(k) *. z.(k))
      done;
      !s)

let fit ?w points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Gaussian.fit: empty data";
  let d = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> d then invalid_arg "Gaussian.fit: ragged rows")
    points;
  let w = match w with Some w -> w | None -> Array.make n (1. /. float_of_int n) in
  if Array.length w <> n then invalid_arg "Gaussian.fit: weight length mismatch";
  let mean = Array.make d 0. in
  Array.iteri
    (fun i p ->
      for j = 0 to d - 1 do
        mean.(j) <- mean.(j) +. (w.(i) *. p.(j))
      done)
    points;
  let cov = Array.make_matrix d d 0. in
  Array.iteri
    (fun i p ->
      for j = 0 to d - 1 do
        for k = 0 to d - 1 do
          cov.(j).(k) <- cov.(j).(k) +. (w.(i) *. (p.(j) -. mean.(j)) *. (p.(k) -. mean.(k)))
        done
      done)
    points;
  create ~mean ~cov
