open Rfid_prob

let mat_testable =
  let pp ppf m =
    Array.iter
      (fun row ->
        Array.iter (fun x -> Format.fprintf ppf "%8.4f " x) row;
        Format.fprintf ppf "@\n")
      m
  in
  let eq a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun ra rb ->
           Array.length ra = Array.length rb
           && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) ra rb)
         a b
  in
  Alcotest.testable pp eq

let spd_3 = [| [| 4.; 1.; 0.5 |]; [| 1.; 3.; 0.2 |]; [| 0.5; 0.2; 2. |] |]

let test_identity_mul () =
  let i = [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
  Alcotest.check mat_testable "I * A = A" spd_3 (Linalg.mat_mul i spd_3)

let test_transpose () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.check mat_testable "transpose" [| [| 1.; 3. |]; [| 2.; 4. |] |]
    (Linalg.transpose a)

let test_cholesky_roundtrip () =
  let l = Linalg.cholesky spd_3 in
  (* l must be lower triangular. *)
  Util.check_close "upper zero" 0. l.(0).(1);
  Util.check_close "upper zero" 0. l.(0).(2);
  Util.check_close "upper zero" 0. l.(1).(2);
  Alcotest.check mat_testable "L L^T = A" spd_3 (Linalg.mat_mul l (Linalg.transpose l))

let test_cholesky_semidefinite_jitter () =
  (* Rank-deficient covariance (all particles at one point). *)
  let zero = Array.make_matrix 3 3 0. in
  let l = Linalg.cholesky zero in
  Alcotest.(check int) "factor exists" 3 (Array.length l)

let test_cholesky_indefinite_rejected () =
  Util.check_raises_invalid "indefinite" (fun () ->
      Linalg.cholesky [| [| 1.; 0. |]; [| 0.; -5. |] |])

let test_solve_spd () =
  let b = [| 1.; 2.; 3. |] in
  let x = Linalg.solve_spd spd_3 b in
  let back = Linalg.mat_vec spd_3 x in
  Array.iteri (fun i v -> Util.check_close "A x = b" b.(i) v) back

let test_inverse_spd () =
  (* Column i of A^-1 solves A x = e_i. *)
  let cols = Array.init 3 (fun i -> Linalg.solve_spd spd_3 (Array.init 3 (fun j -> if i = j then 1. else 0.))) in
  let inv = Linalg.transpose cols in
  Alcotest.check mat_testable "A * A^-1 = I"
    [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |]
    (Linalg.mat_mul spd_3 inv)

let test_log_det () =
  (* log det A = 2 * sum log L_ii for the Cholesky factor L. *)
  let log_det a =
    let l = Linalg.cholesky a in
    2. *. Array.fold_left ( +. ) 0. (Array.mapi (fun i row -> log row.(i)) l)
  in
  Util.check_close "diag(2, 3)" (log 6.) (log_det [| [| 2.; 0. |]; [| 0.; 3. |] |]);
  let a = spd_3 in
  let det =
    (a.(0).(0) *. ((a.(1).(1) *. a.(2).(2)) -. (a.(1).(2) *. a.(2).(1))))
    -. (a.(0).(1) *. ((a.(1).(0) *. a.(2).(2)) -. (a.(1).(2) *. a.(2).(0))))
    +. (a.(0).(2) *. ((a.(1).(0) *. a.(2).(1)) -. (a.(1).(1) *. a.(2).(0))))
  in
  Util.check_close ~eps:1e-9 "3x3 cofactor expansion" (log det) (log_det a)

let test_dot_outer () =
  (* Dot product as a zero-padded row times a zero-padded column. *)
  Alcotest.check mat_testable "dot" [| [| 11.; 0. |]; [| 0.; 0. |] |]
    (Linalg.mat_mul [| [| 1.; 2. |]; [| 0.; 0. |] |] [| [| 3.; 0. |]; [| 4.; 0. |] |]);
  (* Outer product as a column times a row, each zero-padded square. *)
  Alcotest.check mat_testable "outer" [| [| 3.; 4. |]; [| 6.; 8. |] |]
    (Linalg.mat_mul [| [| 1.; 0. |]; [| 2.; 0. |] |] [| [| 3.; 4. |]; [| 0.; 0. |] |])

let test_shape_checks () =
  Util.check_raises_invalid "ragged" (fun () ->
      Linalg.cholesky [| [| 1.; 0. |]; [| 0. |] |]);
  Util.check_raises_invalid "empty" (fun () -> Linalg.cholesky [||]);
  Util.check_raises_invalid "mat_vec mismatch" (fun () ->
      Linalg.mat_vec spd_3 [| 1. |])

(* Random SPD matrices: A = B B^T + eps I. *)
let random_spd rng n =
  let b =
    Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng ()))
  in
  let a = Linalg.mat_mul b (Linalg.transpose b) in
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) +. 0.1
  done;
  a

let prop_cholesky_roundtrip =
  Util.qcheck ~count:100 "random SPD: L L^T = A" QCheck.(pair small_int (int_range 1 4))
    (fun (seed, n) ->
      let rng = Rfid_prob.Rng.create ~seed in
      let a = random_spd rng n in
      let l = Linalg.cholesky a in
      let back = Linalg.mat_mul l (Linalg.transpose l) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Float.abs (back.(i).(j) -. a.(i).(j)) > 1e-6 then ok := false
        done
      done;
      !ok)

let prop_solve_roundtrip =
  Util.qcheck ~count:100 "random SPD solve: A x = b"
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, n) ->
      let rng = Rfid_prob.Rng.create ~seed in
      let a = random_spd rng n in
      let b = Array.init n (fun _ -> Rng.gaussian rng ()) in
      let x = Linalg.solve_spd a b in
      let back = Linalg.mat_vec a x in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) b back)

let suite =
  ( "linalg",
    [
      Alcotest.test_case "identity multiply" `Quick test_identity_mul;
      Alcotest.test_case "transpose" `Quick test_transpose;
      Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
      Alcotest.test_case "cholesky semidefinite jitter" `Quick
        test_cholesky_semidefinite_jitter;
      Alcotest.test_case "cholesky rejects indefinite" `Quick
        test_cholesky_indefinite_rejected;
      Alcotest.test_case "solve SPD" `Quick test_solve_spd;
      Alcotest.test_case "inverse SPD" `Quick test_inverse_spd;
      Alcotest.test_case "log det" `Quick test_log_det;
      Alcotest.test_case "dot and outer" `Quick test_dot_outer;
      Alcotest.test_case "shape validation" `Quick test_shape_checks;
      prop_cholesky_roundtrip;
      prop_solve_roundtrip;
    ] )
