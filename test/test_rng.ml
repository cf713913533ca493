open Rfid_prob

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Util.rng () in
  let b = Rng.of_state (Rng.state a) in
  Alcotest.(check int64) "copy resumes identically" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one must not advance the other. *)
  let _ = Rng.bits64 a in
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  Alcotest.(check bool) "desynchronized after divergence" false (Int64.equal va vb)

let test_split_independent () =
  let a = Util.rng () in
  let b = Rng.split a in
  let xs = Array.init 50 (fun _ -> Rng.float a) in
  let ys = Array.init 50 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_float_range () =
  let r = Util.rng () in
  for _ = 1 to 10000 do
    let x = Rng.float r in
    Util.check_in_range "float" ~lo:0. ~hi:0.9999999999999999 x
  done

let test_float_mean () =
  let r = Util.rng () in
  let n = 50000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  Util.check_close ~eps:0.01 "uniform mean" 0.5 (!sum /. float_of_int n)

let test_int_bounds () =
  let r = Util.rng () in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let k = Rng.int r 7 in
    Util.check_in_range "int bound" ~lo:0. ~hi:6. (float_of_int k);
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 then Alcotest.failf "bucket %d badly undersampled: %d" i c)
    counts

let test_int_invalid () =
  let r = Util.rng () in
  Util.check_raises_invalid "zero bound" (fun () -> Rng.int r 0);
  Util.check_raises_invalid "negative bound" (fun () -> Rng.int r (-3))

let test_gaussian_moments () =
  let r = Util.rng () in
  let n = 100000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r ~sigma:3. ()) in
  Util.check_close ~eps:0.05 "gaussian mean" 0. (Stats.mean xs);
  Util.check_close ~eps:0.15 "gaussian sd" 3. (sqrt (Stats.variance xs))

let test_gaussian_invalid () =
  let r = Util.rng () in
  Util.check_raises_invalid "negative sigma" (fun () ->
      Rng.gaussian r ~sigma:(-1.) ())

let test_bernoulli () =
  let r = Util.rng () in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r ~p:0.3 then incr hits
  done;
  Util.check_close ~eps:0.02 "bernoulli rate" 0.3 (float_of_int !hits /. float_of_int n);
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r ~p:0.);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r ~p:1.);
  (* Out-of-range p is clamped, not an error. *)
  Alcotest.(check bool) "p>1 clamps" true (Rng.bernoulli r ~p:7.)

let test_categorical () =
  let r = Util.rng () in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40000 do
    let k = Rng.categorical r w in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero-weight bucket untouched" 0 counts.(1);
  Util.check_close ~eps:0.02 "weight ratio" 0.25
    (float_of_int counts.(0) /. 40000.);
  Util.check_raises_invalid "empty weights" (fun () -> Rng.categorical r [||]);
  Util.check_raises_invalid "all-zero weights" (fun () ->
      Rng.categorical r [| 0.; 0. |])

let test_uniform () =
  let r = Util.rng () in
  for _ = 1 to 1000 do
    Util.check_in_range "uniform" ~lo:(-2.) ~hi:5. (Rng.uniform r ~lo:(-2.) ~hi:5.)
  done;
  Util.check_raises_invalid "inverted bounds" (fun () -> Rng.uniform r ~lo:1. ~hi:0.)

let prop_int_nonnegative =
  Util.qcheck "Rng.int always in [0, n)" QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let r = Rfid_prob.Rng.create ~seed in
      let k = Rfid_prob.Rng.int r n in
      k >= 0 && k < n)

(* Split and keyed substreams, the sources of the factored filter's
   per-(object, epoch) randomness. *)
let draw n rng = Array.init n (fun _ -> Rng.float rng)

let test_split_reproducible () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let sa = Rng.split a and sb = Rng.split b in
  Alcotest.(check (array (float 0.))) "split of equal states equal"
    (draw 64 sa) (draw 64 sb);
  (* After the split the parents remain synchronized too. *)
  Alcotest.(check (array (float 0.))) "parents still in lockstep" (draw 16 a) (draw 16 b)

(* The keyed substream [for_key_into] writes, as a fresh generator. *)
let for_key base ~key =
  let dst = Rng.create ~seed:0 in
  Rng.for_key_into base ~key dst;
  dst

let test_for_key_pure () =
  let base = Rng.create ~seed:42 in
  let before = Rng.state base in
  let s1 = draw 32 (for_key base ~key:5L) in
  (* Deriving hundreds of other substreams, in any order, must not
     disturb either the base or the key-5 substream. *)
  for k = 0 to 500 do
    ignore (Rng.float (for_key base ~key:(Int64.of_int k)))
  done;
  let s1' = draw 32 (for_key base ~key:5L) in
  Alcotest.(check (array (float 0.))) "same key, same stream" s1 s1';
  Alcotest.(check int64) "base not advanced" before (Rng.state base)

let test_for_key_distinct_and_uniform () =
  let base = Rng.create ~seed:3 in
  (* Substreams for adjacent (object, epoch) keys must decorrelate:
     pool their first draws and check uniformity, and check no two
     adjacent keys yield the same leading draw. *)
  let n = 2000 in
  let firsts =
    Array.init n (fun i -> Rng.float (for_key base ~key:(Rng.key_pair (i / 50) (i mod 50))))
  in
  Util.check_close ~eps:0.02 "substream leading draws uniform" 0.5 (Stats.mean firsts);
  let distinct = Hashtbl.create n in
  Array.iter (fun x -> Hashtbl.replace distinct x ()) firsts;
  Alcotest.(check int) "no colliding substreams" n (Hashtbl.length distinct)

let test_key_pair_injective_locally () =
  let seen = Hashtbl.create 64 in
  for a = 0 to 63 do
    for b = 0 to 63 do
      let k = Rng.key_pair a b in
      (match Hashtbl.find_opt seen k with
      | Some (a', b') -> Alcotest.failf "key collision (%d,%d) vs (%d,%d)" a b a' b'
      | None -> ());
      Hashtbl.replace seen k (a, b)
    done
  done

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "copy independence" `Quick test_copy_independent;
      Alcotest.test_case "split independence" `Quick test_split_independent;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "float mean" `Quick test_float_mean;
      Alcotest.test_case "int bounds and uniformity" `Quick test_int_bounds;
      Alcotest.test_case "int invalid bounds" `Quick test_int_invalid;
      Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
      Alcotest.test_case "gaussian invalid sigma" `Quick test_gaussian_invalid;
      Alcotest.test_case "bernoulli" `Quick test_bernoulli;
      Alcotest.test_case "categorical" `Quick test_categorical;
      Alcotest.test_case "uniform bounds" `Quick test_uniform;
      Alcotest.test_case "split reproducible" `Quick test_split_reproducible;
      Alcotest.test_case "for_key pure and reproducible" `Quick test_for_key_pure;
      Alcotest.test_case "for_key substreams distinct" `Quick
        test_for_key_distinct_and_uniform;
      Alcotest.test_case "key_pair locally injective" `Quick
        test_key_pair_injective_locally;
      prop_int_nonnegative;
    ] )
