open Rfid_prob

let test_log_sum_exp_basic () =
  Util.check_close "lse of log(1),log(2),log(3)" (log 6.)
    (Stats.log_sum_exp [| log 1.; log 2.; log 3. |]);
  Alcotest.(check (float 0.)) "empty" neg_infinity (Stats.log_sum_exp [||]);
  Alcotest.(check (float 0.)) "all -inf" neg_infinity
    (Stats.log_sum_exp [| neg_infinity; neg_infinity |])

let test_log_sum_exp_stability () =
  (* Naive exp would overflow/underflow; stable version must not. *)
  let big = Stats.log_sum_exp [| 1000.; 1000. |] in
  Util.check_close ~eps:1e-9 "huge inputs" (1000. +. log 2.) big;
  let small = Stats.log_sum_exp [| -1000.; -1000. |] in
  Util.check_close ~eps:1e-9 "tiny inputs" (-1000. +. log 2.) small;
  let mixed = Stats.log_sum_exp [| 0.; -10000. |] in
  Util.check_close ~eps:1e-12 "dominated term vanishes" 0. mixed

let test_normalize_log_weights () =
  let w = Stats.normalize_log_weights [| log 1.; log 3. |] in
  Util.check_close "w0" 0.25 w.(0);
  Util.check_close "w1" 0.75 w.(1);
  (* Collapse rescue: all -inf becomes uniform. *)
  let u = Stats.normalize_log_weights [| neg_infinity; neg_infinity |] in
  Util.check_close "uniform rescue" 0.5 u.(0)

let test_normalize () =
  let w = Stats.normalize [| 2.; 6. |] in
  Util.check_close "n0" 0.25 w.(0);
  let u = Stats.normalize [| 0.; 0.; 0. |] in
  Util.check_close "zero-total rescue" (1. /. 3.) u.(1)

let test_ess () =
  Util.check_close "uniform ESS = n" 4.
    (Stats.effective_sample_size [| 0.25; 0.25; 0.25; 0.25 |]);
  Util.check_close "degenerate ESS = 1" 1.
    (Stats.effective_sample_size [| 1.; 0.; 0. |]);
  Util.check_close "empty" 0. (Stats.effective_sample_size [||])

let test_moments () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Util.check_close "mean" 2.5 (Stats.mean a);
  Util.check_close "variance" 1.25 (Stats.variance a);
  Util.check_close "empty mean" 0. (Stats.mean [||])

let test_normalize_in_place () =
  let a = [| log 1.; log 3. |] in
  Stats.normalize_log_weights_in_place a;
  Util.check_close "w0" 0.25 a.(0);
  Util.check_close "w1" 0.75 a.(1);
  let u = [| neg_infinity; neg_infinity |] in
  Stats.normalize_log_weights_in_place u;
  Util.check_close "uniform rescue" 0.5 u.(1)

let test_normalize_into () =
  let src = [| log 2.; log 6. |] in
  let dst = [| 0.; 0. |] in
  Stats.normalize_log_weights_into ~src ~dst;
  Util.check_close "w0" 0.25 dst.(0);
  Util.check_close "w1" 0.75 dst.(1);
  Util.check_close "src untouched" (log 2.) src.(0);
  Util.check_raises_invalid "length mismatch" (fun () ->
      Stats.normalize_log_weights_into ~src ~dst:[| 0. |])

let prop_lse_ge_max =
  Util.qcheck "log_sum_exp >= max element"
    QCheck.(array_of_size Gen.(int_range 1 20) (float_range (-50.) 50.))
    (fun a ->
      let lse = Stats.log_sum_exp a in
      let m = Array.fold_left Float.max neg_infinity a in
      lse >= m -. 1e-9)

let prop_normalize_sums_to_one =
  Util.qcheck "normalized log weights sum to 1"
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
    (fun a ->
      let w = Stats.normalize_log_weights a in
      Float.abs (Array.fold_left ( +. ) 0. w -. 1.) < 1e-9)

let prop_ess_bounds =
  Util.qcheck "1 <= ESS <= n for normalized weights"
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range 0.001 10.))
    (fun a ->
      let w = Stats.normalize a in
      let ess = Stats.effective_sample_size w in
      ess >= 1. -. 1e-9 && ess <= float_of_int (Array.length a) +. 1e-9)

let suite =
  ( "stats",
    [
      Alcotest.test_case "log_sum_exp basics" `Quick test_log_sum_exp_basic;
      Alcotest.test_case "log_sum_exp stability" `Quick test_log_sum_exp_stability;
      Alcotest.test_case "normalize_log_weights" `Quick test_normalize_log_weights;
      Alcotest.test_case "normalize" `Quick test_normalize;
      Alcotest.test_case "effective sample size" `Quick test_ess;
      Alcotest.test_case "moments" `Quick test_moments;
      Alcotest.test_case "normalize_log_weights in place" `Quick test_normalize_in_place;
      Alcotest.test_case "normalize_log_weights_into" `Quick test_normalize_into;
      prop_lse_ge_max;
      prop_normalize_sums_to_one;
      prop_ess_bounds;
    ] )
