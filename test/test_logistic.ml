open Rfid_prob

let test_sigmoid () =
  Util.check_close "sigmoid 0" 0.5 (Logistic.sigmoid 0.);
  Util.check_close ~eps:1e-9 "sigmoid symmetry" 1.
    (Logistic.sigmoid 3. +. Logistic.sigmoid (-3.));
  Util.check_close ~eps:1e-12 "sigmoid large" 1. (Logistic.sigmoid 50.);
  Util.check_close ~eps:1e-12 "sigmoid -large" 0. (Logistic.sigmoid (-50.));
  (* No overflow at extremes. *)
  Alcotest.(check bool) "finite at 1e4" true (Float.is_finite (Logistic.sigmoid 1e4));
  Alcotest.(check bool) "finite at -1e4" true (Float.is_finite (Logistic.sigmoid (-1e4)))

let test_log_sigmoid () =
  Util.check_close ~eps:1e-12 "log_sigmoid 0" (log 0.5) (Logistic.log_sigmoid 0.);
  Util.check_close ~eps:1e-9 "consistent with sigmoid" (log (Logistic.sigmoid 2.))
    (Logistic.log_sigmoid 2.);
  (* Deep negative tail is linear, not -inf. *)
  Util.check_close ~eps:1e-6 "tail" (-1000.) (Logistic.log_sigmoid (-1000.))

let dot = Logistic_reference.dot

let planted_data ~seed ~n coef =
  let rng = Rng.create ~seed in
  let dim = Array.length coef in
  let x =
    Array.init n (fun _ ->
        Array.init dim (fun j -> if j = 0 then 1. else Rng.gaussian rng ()))
  in
  let y =
    Array.map (fun xi -> Rng.bernoulli rng ~p:(Logistic.sigmoid (dot coef xi))) x
  in
  (x, y)

let test_fit_recovers_planted () =
  let coef = [| 0.5; -1.5; 2. |] in
  let x, y = planted_data ~seed:3 ~n:20000 coef in
  let m = Logistic.fit ~x ~y ~dim:3 () in
  Array.iteri
    (fun j c -> Util.check_close ~eps:0.1 (Printf.sprintf "coef %d" j) c m.Logistic.coef.(j))
    coef

let test_fit_weighted () =
  (* Duplicate-by-weight must equal duplicate-by-row. *)
  let x = [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |] |] in
  let y = [| false; true; true |] in
  let m_weighted = Logistic.fit ~x ~y ~w:[| 2.; 2.; 2. |] ~dim:2 () in
  let x2 = Array.append x x and y2 = Array.append y y in
  let m_dup = Logistic.fit ~x:x2 ~y:y2 ~dim:2 () in
  Array.iteri
    (fun j c -> Util.check_close ~eps:1e-6 "weight = duplication" c m_weighted.Logistic.coef.(j))
    m_dup.Logistic.coef

(* The fitted model's class probability and data log-likelihood. *)
let predict m x = Logistic.sigmoid (dot m.Logistic.coef x)

let log_likelihood m ~x ~y =
  let z i = dot m.Logistic.coef x.(i) in
  Array.fold_left ( +. ) 0.
    (Array.mapi (fun i yi -> Logistic.log_sigmoid (if yi then z i else -.z i)) y)

let test_fit_separable_stays_finite () =
  (* Perfectly separable data: unregularized ML diverges; the ridge +
     trust region must return finite coefficients. *)
  let x = Array.init 100 (fun i -> [| 1.; float_of_int i -. 50. |]) in
  let y = Array.init 100 (fun i -> i >= 50) in
  let m = Logistic.fit ~l2:1e-3 ~x ~y ~dim:2 () in
  Array.iter
    (fun c -> Alcotest.(check bool) "finite" true (Float.is_finite c))
    m.Logistic.coef;
  (* And it must classify correctly. *)
  Alcotest.(check bool) "classifies high" true (predict m [| 1.; 40. |] > 0.9);
  Alcotest.(check bool) "classifies low" true (predict m [| 1.; -40. |] < 0.1)

let test_nonpositive_constraint () =
  (* Data that wants a positive slope; the constraint must pin it at 0. *)
  let x, y = planted_data ~seed:5 ~n:5000 [| 0.2; 1.5 |] in
  let m = Logistic.fit ~nonpositive:[ 1 ] ~x ~y ~dim:2 () in
  Alcotest.(check bool) "slope clamped" true (m.Logistic.coef.(1) <= 1e-12);
  (* Constraint on a naturally negative coefficient is inactive. *)
  let x2, y2 = planted_data ~seed:6 ~n:5000 [| 0.2; -1.5 |] in
  let m2 = Logistic.fit ~nonpositive:[ 1 ] ~x:x2 ~y:y2 ~dim:2 () in
  Util.check_close ~eps:0.15 "inactive constraint" (-1.5) m2.Logistic.coef.(1);
  Util.check_raises_invalid "bad index" (fun () ->
      Logistic.fit ~nonpositive:[ 7 ] ~x:x2 ~y:y2 ~dim:2 ())

let test_log_likelihood_improves () =
  let x, y = planted_data ~seed:9 ~n:2000 [| 1.; -2. |] in
  let m0 = { Logistic.coef = [| 0.; 0. |] } in
  let m = Logistic.fit ~x ~y ~dim:2 () in
  let ll0 = log_likelihood m0 ~x ~y in
  let ll = log_likelihood m ~x ~y in
  Alcotest.(check bool) "fit improves likelihood" true (ll > ll0)

let test_fit_validation () =
  Util.check_raises_invalid "empty" (fun () -> Logistic.fit ~x:[||] ~y:[||] ~dim:2 ());
  Util.check_raises_invalid "label mismatch" (fun () ->
      Logistic.fit ~x:[| [| 1. |] |] ~y:[||] ~dim:1 ());
  Util.check_raises_invalid "feature dim" (fun () ->
      Logistic.fit ~x:[| [| 1.; 2. |] |] ~y:[| true |] ~dim:1 ())

(* The fit must equal the two-pass reference bit for bit, so that every
   caller (the served sensor, EM's M-step, the goldens) is unchanged. *)
let same_bits (a : Logistic.model) (b : Logistic.model) =
  Array.length a.Logistic.coef = Array.length b.Logistic.coef
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       a.Logistic.coef b.Logistic.coef

let check_same_bits what ?l2 ?init ?nonpositive ?w ~x ~y ~dim () =
  let got = Logistic.fit ?l2 ?init ?nonpositive ?w ~x ~y ~dim () in
  let want = Logistic_reference.fit ?l2 ?init ?nonpositive ?w ~x ~y ~dim () in
  let hex (m : Logistic.model) =
    String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") m.Logistic.coef))
  in
  if not (same_bits got want) then
    Alcotest.failf "%s: coefficients [%s], reference [%s]" what (hex got) (hex want)

(* One random fitting problem per seed: shape, feature scale, planted
   or coin-flip labels, optional weights (some exactly zero), optional
   start (positive values on constrained coordinates included), a random
   constraint set and a ridge penalty from none to heavy. *)
let prop_fit_matches_reference =
  Util.qcheck ~count:300 "fit bit-identical to two-pass reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let dim = 1 + Rng.int rng 6 and n = 1 + Rng.int rng 150 in
      let scale = [| 0.3; 1.; 5. |].(Rng.int rng 3) in
      let x =
        Array.init n (fun _ ->
            Array.init dim (fun j -> if j = 0 then 1. else scale *. Rng.gaussian rng ()))
      in
      let planted = Array.init dim (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let y =
        if Rng.bool rng then
          Array.map (fun xi -> Rng.bernoulli rng ~p:(Logistic.sigmoid (dot planted xi))) x
        else Array.init n (fun _ -> Rng.bool rng)
      in
      let w =
        if Rng.bool rng then None
        else
          Some
            (Array.init n (fun _ ->
                 if Rng.int rng 5 = 0 then 0. else Rng.uniform rng ~lo:0.1 ~hi:3.))
      in
      let init =
        if Rng.bool rng then None
        else Some (Array.init dim (fun _ -> Rng.uniform rng ~lo:(-3.) ~hi:3.))
      in
      let nonpositive = List.filter (fun _ -> Rng.bool rng) (List.init dim Fun.id) in
      let l2 = [| None; Some 0.; Some 1e-6; Some 1e-2; Some 1. |].(Rng.int rng 5) in
      let got = Logistic.fit ?l2 ?init ~nonpositive ~x ~y ?w ~dim () in
      same_bits got (Logistic_reference.fit ?l2 ?init ~nonpositive ~x ~y ?w ~dim ()))

let test_fit_matches_reference_edges () =
  (* Separable data at a small feature scale and without a ridge: the
     Newton steps grow past the trust-region cap. *)
  let x = Array.init 100 (fun i -> [| 1.; 0.01 *. (float_of_int i -. 49.5) |]) in
  let y = Array.init 100 (fun i -> i >= 50) in
  check_same_bits "separable, l2 = 0" ~l2:0. ~x ~y ~dim:2 ();
  check_same_bits "separable, constrained from a positive start" ~init:[| 0.5; 2. |]
    ~nonpositive:[ 1 ] ~x ~y ~dim:2 ();
  (* Rank-deficient design (a duplicated and an all-zero column) under a
     negative ridge: the Newton system is indefinite, Cholesky fails even
     after jitter, and the fit takes the damped-gradient fallback. *)
  let x, y = planted_data ~seed:12 ~n:300 [| 0.3; -1. |] in
  let x = Array.map (fun r -> [| r.(0); r.(1); r.(1); 0. |]) x in
  check_same_bits "rank-deficient, singular fallback" ~l2:(-1e-3) ~x ~y ~dim:4 ();
  (* The served sensor's fit shape: five features, four constrained. *)
  let x, y = planted_data ~seed:13 ~n:2000 [| 1.; -0.5; -0.2; 0.4; -0.1 |] in
  check_same_bits "sensor-shaped, constrained" ~nonpositive:[ 1; 2; 3; 4 ] ~x ~y ~dim:5 ()

let prop_predict_in_unit_interval =
  Util.qcheck "predictions live in (0,1)"
    QCheck.(array_of_size (Gen.return 3) (float_range (-10.) 10.))
    (fun coef ->
      let p = predict { Logistic.coef } [| 1.; 2.; -3. |] in
      p >= 0. && p <= 1.)

let suite =
  ( "logistic",
    [
      Alcotest.test_case "sigmoid" `Quick test_sigmoid;
      Alcotest.test_case "log_sigmoid" `Quick test_log_sigmoid;
      Alcotest.test_case "fit recovers planted model" `Quick test_fit_recovers_planted;
      Alcotest.test_case "weights equal duplication" `Quick test_fit_weighted;
      Alcotest.test_case "separable data stays finite" `Quick
        test_fit_separable_stays_finite;
      Alcotest.test_case "nonpositive constraints" `Quick test_nonpositive_constraint;
      Alcotest.test_case "likelihood improves" `Quick test_log_likelihood_improves;
      Alcotest.test_case "input validation" `Quick test_fit_validation;
      prop_fit_matches_reference;
      Alcotest.test_case "fit bit-identical to reference on edge cases" `Quick
        test_fit_matches_reference_edges;
      prop_predict_in_unit_interval;
    ] )
