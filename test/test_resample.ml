open Rfid_prob

let counts_of idx m =
  let c = Array.make m 0 in
  Array.iter (fun i -> c.(i) <- c.(i) + 1) idx;
  c

(* The in-place schemes, into a fresh buffer. *)
let into scheme r w ~n =
  let out = Array.make n 0 in
  scheme r w ~n ~out;
  out

let multinomial = into Resample.multinomial_into
let residual = into Resample.residual_into

let test_systematic_exact_for_uniform () =
  (* Uniform weights: systematic resampling must return each index
     exactly once (n = m). *)
  let r = Util.rng () in
  let w = Array.make 10 0.1 in
  let idx = Resample.systematic r w ~n:10 in
  Alcotest.(check (array int)) "identity multiset" (Array.init 10 Fun.id)
    (let s = Array.copy idx in
     Array.sort Int.compare s;
     s)

let test_systematic_proportionality () =
  let r = Util.rng () in
  let w = [| 0.5; 0.25; 0.25 |] in
  let idx = Resample.systematic r w ~n:1000 in
  let c = counts_of idx 3 in
  (* Systematic resampling has bounded deviation: count within 1 of
     expectation. *)
  Util.check_in_range "c0" ~lo:499. ~hi:501. (float_of_int c.(0));
  Util.check_in_range "c1" ~lo:249. ~hi:251. (float_of_int c.(1))

let test_multinomial_unbiased () =
  let r = Util.rng () in
  let w = [| 0.7; 0.3 |] in
  let idx = multinomial r w ~n:50000 in
  let c = counts_of idx 2 in
  Util.check_close ~eps:0.02 "multinomial rate" 0.7 (float_of_int c.(0) /. 50000.)

let test_residual_floor_counts () =
  let r = Util.rng () in
  let w = [| 0.5; 0.3; 0.2 |] in
  let idx = residual r w ~n:10 in
  let c = counts_of idx 3 in
  (* Deterministic floors: at least 5, 3, 2 copies respectively. *)
  Alcotest.(check bool) "floor 0" true (c.(0) >= 5);
  Alcotest.(check bool) "floor 1" true (c.(1) >= 3);
  Alcotest.(check bool) "floor 2" true (c.(2) >= 2);
  Alcotest.(check int) "total" 10 (Array.fold_left ( + ) 0 c)

let test_zero_weight_never_selected () =
  let r = Util.rng () in
  let w = [| 0.; 1.; 0. |] in
  Array.iter
    (fun scheme ->
      let idx = scheme r w ~n:100 in
      Array.iter (fun i -> Alcotest.(check int) "only live index" 1 i) idx)
    [| Resample.systematic; multinomial; residual |]

let test_empty_rejected () =
  let r = Util.rng () in
  Util.check_raises_invalid "systematic empty" (fun () ->
      Resample.systematic r [||] ~n:5);
  Util.check_raises_invalid "multinomial empty" (fun () ->
      multinomial r [||] ~n:5)

let test_degenerate_weights_fallback () =
  let r = Util.rng () in
  (* All-zero weights: systematic falls back to a uniform stride rather
     than crashing (particle-collapse rescue). *)
  let idx = Resample.systematic r [| 0.; 0.; 0. |] ~n:6 in
  Alcotest.(check int) "returns n indices" 6 (Array.length idx);
  Array.iter (fun i -> Util.check_in_range "index" ~lo:0. ~hi:2. (float_of_int i)) idx

let test_in_place_buffers () =
  let w = [| 0.2; 0.5; 0.3 |] in
  (* systematic_into draws and returns exactly what systematic does. *)
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  let out = Array.make 8 0 in
  Resample.systematic_into a w ~n:8 ~out;
  Alcotest.(check (array int)) "systematic_into = systematic" (Resample.systematic b w ~n:8) out;
  Alcotest.(check int64) "same RNG consumption" (Rng.state b) (Rng.state a);
  List.iter
    (fun (name, scheme) ->
      Util.check_raises_invalid name (fun () ->
          scheme (Util.rng ()) w ~n:4 ~out:(Array.make 3 0)))
    [
      ("systematic_into short buffer", Resample.systematic_into);
      ("multinomial_into short buffer", Resample.multinomial_into);
      ("residual_into short buffer", Resample.residual_into);
    ]

let prop_indices_in_range =
  Util.qcheck "resampled indices are valid"
    QCheck.(
      pair small_int (array_of_size Gen.(int_range 1 20) (float_range 0.01 5.)))
    (fun (seed, w) ->
      let r = Rfid_prob.Rng.create ~seed in
      let n = 37 in
      let m = Array.length w in
      List.for_all
        (fun scheme ->
          let idx = scheme r (Stats.normalize w) ~n in
          Array.length idx = n && Array.for_all (fun i -> i >= 0 && i < m) idx)
        [ Resample.systematic; multinomial; residual ])

let prop_systematic_unbiased =
  (* Expected count of index i is n * w_i; systematic guarantees counts
     within 1 of it. *)
  Util.qcheck ~count:100 "systematic counts within 1 of expectation"
    QCheck.(
      pair small_int (array_of_size Gen.(int_range 1 10) (float_range 0.01 5.)))
    (fun (seed, raw) ->
      let r = Rfid_prob.Rng.create ~seed in
      let w = Stats.normalize raw in
      let n = 500 in
      let idx = Resample.systematic r w ~n in
      let c = counts_of idx (Array.length w) in
      Array.for_all2
        (fun ci wi -> Float.abs (float_of_int ci -. (float_of_int n *. wi)) <= 1.0001)
        c w)

let suite =
  ( "resample",
    [
      Alcotest.test_case "systematic exact for uniform" `Quick
        test_systematic_exact_for_uniform;
      Alcotest.test_case "systematic proportionality" `Quick
        test_systematic_proportionality;
      Alcotest.test_case "multinomial unbiased" `Quick test_multinomial_unbiased;
      Alcotest.test_case "residual floor counts" `Quick test_residual_floor_counts;
      Alcotest.test_case "zero weight never selected" `Quick
        test_zero_weight_never_selected;
      Alcotest.test_case "empty weights rejected" `Quick test_empty_rejected;
      Alcotest.test_case "in-place buffers" `Quick test_in_place_buffers;
      Alcotest.test_case "degenerate weights fallback" `Quick
        test_degenerate_weights_fallback;
      prop_indices_in_range;
      prop_systematic_unbiased;
    ] )
