open Rfid_prob

(* The univariate case is the 1-D Gaussian. *)
let uni ~mu ~var = Gaussian.create ~mean:[| mu |] ~cov:[| [| var |] |]

let test_uni_pdf () =
  let g = uni ~mu:0. ~var:1. in
  Util.check_close ~eps:1e-9 "standard normal at 0" (1. /. sqrt (2. *. Float.pi))
    (exp (Gaussian.log_pdf g [| 0. |]));
  Util.check_close ~eps:1e-9 "standard normal at 1"
    (-0.5 -. log (sqrt (2. *. Float.pi)))
    (Gaussian.log_pdf g [| 1. |])

let test_uni_fit () =
  let g = Gaussian.fit [| [| 1. |]; [| 2. |]; [| 3. |] |] in
  Util.check_close "fit mean" 2. (Gaussian.mean g).(0);
  Util.check_close ~eps:1e-9 "fit variance" (2. /. 3.) (Gaussian.cov g).(0).(0);
  let gw = Gaussian.fit ~w:[| 1.; 0.; 0. |] [| [| 1. |]; [| 2. |]; [| 3. |] |] in
  Util.check_close "weighted fit mean" 1. (Gaussian.mean gw).(0)

let test_uni_cdf () =
  let g = Gaussian.Univariate.create ~mu:0. ~sigma:1. in
  Util.check_close ~eps:1e-6 "cdf(0)" 0.5 (Gaussian.Univariate.cdf g 0.);
  Util.check_close ~eps:1e-4 "cdf(1.96)" 0.975 (Gaussian.Univariate.cdf g 1.96);
  Util.check_close ~eps:1e-4 "cdf(-1.96)" 0.025 (Gaussian.Univariate.cdf g (-1.96))

let test_uni_degenerate () =
  let g = Gaussian.Univariate.create ~mu:3. ~sigma:0. in
  Util.check_close "cdf step below" 0. (Gaussian.Univariate.cdf g 2.9);
  Util.check_close "cdf step above" 1. (Gaussian.Univariate.cdf g 3.1);
  Util.check_raises_invalid "negative sigma" (fun () ->
      Gaussian.Univariate.create ~mu:0. ~sigma:(-1.))

let mv2 () =
  Gaussian.create ~mean:[| 1.; 2. |] ~cov:[| [| 2.; 0.5 |]; [| 0.5; 1. |] |]

let test_mv_pdf_at_mean () =
  let g = mv2 () in
  (* pdf at mean = 1 / (2 pi sqrt |cov|); |cov| = 1.75 *)
  Util.check_close ~eps:1e-9 "log pdf at mean"
    (-.log (2. *. Float.pi) -. (0.5 *. log 1.75))
    (Gaussian.log_pdf g [| 1.; 2. |])

let identity2 = [| [| 1.; 0. |]; [| 0.; 1. |] |]

(* Squared Mahalanobis distance read off the log density. *)
let mahalanobis_sq g x = -2. *. (Gaussian.log_pdf g x -. Gaussian.log_pdf g (Gaussian.mean g))

let test_mv_mahalanobis () =
  let g = Gaussian.create ~mean:[| 0.; 0. |] ~cov:identity2 in
  Util.check_close ~eps:1e-9 "identity mahalanobis" 25. (mahalanobis_sq g [| 3.; 4. |]);
  Util.check_raises_invalid "dim mismatch" (fun () -> Gaussian.log_pdf g [| 1. |])

let test_mv_sample_moments () =
  let g = mv2 () in
  let rng = Util.rng () in
  let n = 50000 in
  let samples = Array.init n (fun _ -> Gaussian.sample g rng) in
  let mean0 = Stats.mean (Array.map (fun s -> s.(0)) samples) in
  let mean1 = Stats.mean (Array.map (fun s -> s.(1)) samples) in
  Util.check_close ~eps:0.03 "sample mean x" 1. mean0;
  Util.check_close ~eps:0.03 "sample mean y" 2. mean1;
  let cov01 =
    Stats.mean (Array.map (fun s -> (s.(0) -. 1.) *. (s.(1) -. 2.)) samples)
  in
  Util.check_close ~eps:0.05 "sample cov xy" 0.5 cov01

let test_mv_fit_roundtrip () =
  let g = mv2 () in
  let rng = Util.rng () in
  let samples = Array.init 50000 (fun _ -> Gaussian.sample g rng) in
  let fitted = Gaussian.fit samples in
  let m = Gaussian.mean fitted in
  Util.check_close ~eps:0.05 "refit mean x" 1. m.(0);
  Util.check_close ~eps:0.05 "refit mean y" 2. m.(1);
  let c = Gaussian.cov fitted in
  Util.check_close ~eps:0.08 "refit cov 00" 2. c.(0).(0);
  Util.check_close ~eps:0.08 "refit cov 01" 0.5 c.(0).(1)

let test_mv_weighted_fit () =
  (* All weight on two symmetric points: mean at center. *)
  let pts = [| [| 0.; 0. |]; [| 2.; 2. |]; [| 100.; -100. |] |] in
  let w = [| 0.5; 0.5; 0. |] in
  let g = Gaussian.fit ~w pts in
  let m = Gaussian.mean g in
  Util.check_close "weighted mean x" 1. m.(0);
  Util.check_close "weighted mean y" 1. m.(1)

let test_mv_fit_degenerate () =
  (* Identical points: covariance is zero; jitter must rescue. *)
  let pts = Array.make 10 [| 3.; 4.; 5. |] in
  let g = Gaussian.fit pts in
  let m = Gaussian.mean g in
  Util.check_close "degenerate mean" 3. m.(0);
  Alcotest.(check bool) "sampling works" true
    (Array.length (Gaussian.sample g (Util.rng ())) = 3)

let test_mv_invalid () =
  Util.check_raises_invalid "empty fit" (fun () -> Gaussian.fit [||]);
  Util.check_raises_invalid "ragged fit" (fun () ->
      Gaussian.fit [| [| 1. |]; [| 1.; 2. |] |]);
  Util.check_raises_invalid "cov dim mismatch" (fun () ->
      Gaussian.create ~mean:[| 0. |] ~cov:identity2)

let avg_nll g pts =
  -.Array.fold_left (fun acc p -> acc +. Gaussian.log_pdf g p) 0. pts
  /. float_of_int (Array.length pts)

let test_avg_nll () =
  (* Points drawn from the model should have lower NLL under it than
     under a badly shifted model. *)
  let g = Gaussian.create ~mean:[| 1.; 2.; 0.5 |] ~cov:[| [| 2.; 0.5; 0. |]; [| 0.5; 1.; 0. |]; [| 0.; 0.; 0.3 |] |] in
  let rng = Util.rng () in
  let pts = Array.init 2000 (fun _ -> Gaussian.sample g rng) in
  let shifted = Gaussian.create ~mean:[| 10.; -10.; 0.5 |] ~cov:(Gaussian.cov g) in
  Alcotest.(check bool) "model fits own samples better" true
    (avg_nll g pts < avg_nll shifted pts)

let prop_fit_is_kl_optimal_mean =
  (* The moment-matched mean minimizes the weighted squared error, so
     perturbing it can only increase avg NLL. *)
  Util.qcheck ~count:60 "moment fit beats perturbed mean" QCheck.small_int (fun seed ->
      let rng = Rfid_prob.Rng.create ~seed in
      let pts =
        Array.init 200 (fun _ -> [| Rng.gaussian rng (); Rng.gaussian rng () |])
      in
      let g = Gaussian.fit pts in
      let m = Gaussian.mean g in
      let perturbed =
        Gaussian.create ~mean:[| m.(0) +. 0.5; m.(1) -. 0.3 |] ~cov:(Gaussian.cov g)
      in
      avg_nll g pts <= avg_nll perturbed pts +. 1e-9)

let test_confidence_ellipse () =
  (* The level-[level] confidence ellipse is the density contour at
     squared Mahalanobis radius r2 = -2 log (1 - level): its semi-axes
     are sigma_i * sqrt r2 along the principal axes. *)
  let r = sqrt (-2. *. log 0.05) in
  let on_contour what g x = Util.check_close ~eps:1e-9 what (r *. r) (mahalanobis_sq g x) in
  let iso = Gaussian.create ~mean:[| 0.; 0. |] ~cov:[| [| 4.; 0. |]; [| 0.; 4. |] |] in
  on_contour "isotropic, x semi-axis" iso [| 2. *. r; 0. |];
  on_contour "isotropic, y semi-axis" iso [| 0.; -2. *. r |];
  (* Anisotropic diagonal: the major axis follows the larger variance. *)
  let aniso = Gaussian.create ~mean:[| 0.; 0. |] ~cov:[| [| 1.; 0. |]; [| 0.; 9. |] |] in
  on_contour "minor semi-axis along x" aniso [| r; 0. |];
  on_contour "major semi-axis along y" aniso [| 0.; 3. *. r |];
  Alcotest.(check bool) "inside along y at the minor length" true
    (mahalanobis_sq aniso [| 0.; r |] < r *. r);
  (* Coverage level ordering. *)
  let r50 = sqrt (-2. *. log 0.5) in
  Alcotest.(check bool) "95% region larger than 50%" true (r > r50)

let test_confidence_ellipse_coverage () =
  (* Empirical check: ~95% of samples fall inside the 95% ellipse. *)
  let g =
    Gaussian.create ~mean:[| 1.; -2. |] ~cov:[| [| 2.; 0.7 |]; [| 0.7; 1. |] |]
  in
  let rng = Util.rng () in
  let r2 = -2. *. log 0.05 in
  let inside = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    let s = Gaussian.sample g rng in
    if mahalanobis_sq g s <= r2 then incr inside
  done;
  Util.check_close ~eps:0.01 "95% coverage" 0.95 (float_of_int !inside /. float_of_int n)

let suite =
  ( "gaussian",
    [
      Alcotest.test_case "univariate pdf" `Quick test_uni_pdf;
      Alcotest.test_case "univariate cdf" `Quick test_uni_cdf;
      Alcotest.test_case "univariate degenerate" `Quick test_uni_degenerate;
      Alcotest.test_case "univariate fit" `Quick test_uni_fit;
      Alcotest.test_case "mv pdf at mean" `Quick test_mv_pdf_at_mean;
      Alcotest.test_case "mv mahalanobis" `Quick test_mv_mahalanobis;
      Alcotest.test_case "mv sample moments" `Quick test_mv_sample_moments;
      Alcotest.test_case "mv fit roundtrip" `Quick test_mv_fit_roundtrip;
      Alcotest.test_case "mv weighted fit" `Quick test_mv_weighted_fit;
      Alcotest.test_case "mv degenerate fit" `Quick test_mv_fit_degenerate;
      Alcotest.test_case "mv shape validation" `Quick test_mv_invalid;
      Alcotest.test_case "avg negative log-likelihood" `Quick test_avg_nll;
      Alcotest.test_case "confidence ellipse" `Quick test_confidence_ellipse;
      Alcotest.test_case "confidence ellipse coverage" `Quick
        test_confidence_ellipse_coverage;
      prop_fit_is_kl_optimal_mean;
    ] )
