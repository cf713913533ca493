(* Structure-of-arrays particle storage: accessor round-trips, the
   in-place weight/resample operations against straightforward
   array-of-records references, and the bit-identity contract — every
   [_into]/slab routine must match the allocating formulation it
   replaced, bit for bit. *)
open Rfid_prob

let mk_rng seed = Rng.create ~seed

(* Fill a store with a reproducible cloud and return the same data as
   plain arrays for reference computations. *)
let filled ~seed n =
  let rng = mk_rng seed in
  let s = Particle_store.create ~n in
  let xs = Array.make n 0. and ys = Array.make n 0. and zs = Array.make n 0. in
  let lw = Array.make n 0. and rd = Array.make n 0 in
  for i = 0 to n - 1 do
    xs.(i) <- Rng.uniform rng ~lo:(-5.) ~hi:5.;
    ys.(i) <- Rng.uniform rng ~lo:(-5.) ~hi:5.;
    zs.(i) <- Rng.uniform rng ~lo:0. ~hi:2.;
    lw.(i) <- Rng.uniform rng ~lo:(-3.) ~hi:0.5;
    rd.(i) <- Rng.int rng 7;
    Particle_store.set_loc s i ~x:xs.(i) ~y:ys.(i) ~z:zs.(i);
    Particle_store.set_log_w s i lw.(i);
    Particle_store.set_reader s i rd.(i)
  done;
  (s, xs, ys, zs, lw, rd)

(* Slab length: the store's capacity. *)
let capacity s =
  let xs, _, _, _, _ = Particle_store.backing s in
  Float.Array.length xs

let test_create_resize () =
  let s = Particle_store.create ~n:0 in
  Alcotest.(check int) "empty store legal" 0 (Particle_store.length s);
  Particle_store.resize s 5;
  Alcotest.(check int) "resize grows" 5 (Particle_store.length s);
  Alcotest.(check bool) "capacity covers length" true (capacity s >= 5);
  let cap = capacity s in
  Particle_store.resize s 2;
  Alcotest.(check int) "resize shrinks length" 2 (Particle_store.length s);
  Alcotest.(check int) "shrink keeps capacity" cap (capacity s);
  Util.check_raises_invalid "negative create" (fun () ->
      ignore (Particle_store.create ~n:(-1)))

let test_accessor_roundtrip () =
  let n = 17 in
  let s, xs, ys, zs, lw, rd = filled ~seed:3 n in
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.)) "x" xs.(i) (Particle_store.x s i);
    Alcotest.(check (float 0.)) "y" ys.(i) (Particle_store.y s i);
    Alcotest.(check (float 0.)) "z" zs.(i) (Particle_store.z s i);
    Alcotest.(check (float 0.)) "log_w" lw.(i) (Particle_store.log_w s i);
    Alcotest.(check int) "reader" rd.(i) (Particle_store.reader s i)
  done

let test_weight_ops () =
  let n = 33 in
  let s, _, _, _, lw, _ = filled ~seed:11 n in
  let m = Array.fold_left Float.max neg_infinity lw in
  Alcotest.(check (float 0.)) "max_log_w" m (Particle_store.max_log_w s);
  Particle_store.shift_log_w s m;
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.)) "shifted" (lw.(i) -. m) (Particle_store.log_w s i)
  done;
  Alcotest.(check (float 0.)) "empty max" neg_infinity
    (Particle_store.max_log_w (Particle_store.create ~n:0))

let test_weights_into_bit_identical () =
  let n = 64 in
  let s, _, _, _, lw, _ = filled ~seed:23 n in
  let got = Array.make n 0. in
  Particle_store.weights_into s got;
  let expected = Stats.normalize_log_weights lw in
  Alcotest.(check (array (float 0.))) "weights_into = normalize of copy" expected got;
  Alcotest.(check (array (float 0.)))
    "normalized_weights agrees" expected
    (Particle_store.normalized_weights s);
  Util.check_raises_invalid "length mismatch" (fun () ->
      Particle_store.weights_into s (Array.make (n - 1) 0.))

let test_gather_matches_reference () =
  let n = 40 in
  let src, xs, ys, zs, _, rd = filled ~seed:31 n in
  let rng = mk_rng 5 in
  let idx = Array.init n (fun _ -> Rng.int rng n) in
  let dst = Particle_store.create ~n:0 in
  Particle_store.gather ~src ~dst idx ~n;
  for i = 0 to n - 1 do
    let j = idx.(i) in
    Alcotest.(check (float 0.)) "gathered x" xs.(j) (Particle_store.x dst i);
    Alcotest.(check (float 0.)) "gathered y" ys.(j) (Particle_store.y dst i);
    Alcotest.(check (float 0.)) "gathered z" zs.(j) (Particle_store.z dst i);
    Alcotest.(check int) "gathered reader" rd.(j) (Particle_store.reader dst i);
    Alcotest.(check (float 0.)) "gathered weight reset" 0. (Particle_store.log_w dst i)
  done;
  Util.check_raises_invalid "self gather" (fun () ->
      Particle_store.gather ~src ~dst:src idx ~n);
  Util.check_raises_invalid "index out of range" (fun () ->
      Particle_store.gather ~src ~dst [| n |] ~n:1)

let test_blit_and_swap () =
  let n = 12 in
  let a, xs, _, _, lw, _ = filled ~seed:41 n in
  let b = Particle_store.create ~n in
  Particle_store.blit ~src:a ~src_pos:3 ~dst:b ~dst_pos:0 ~len:5;
  for i = 0 to 4 do
    Alcotest.(check (float 0.)) "blit x" xs.(i + 3) (Particle_store.x b i);
    Alcotest.(check (float 0.)) "blit log_w" lw.(i + 3) (Particle_store.log_w b i)
  done;
  Util.check_raises_invalid "blit out of range" (fun () ->
      Particle_store.blit ~src:a ~src_pos:(n - 2) ~dst:b ~dst_pos:0 ~len:5);
  let c, cx, _, _, _, _ = filled ~seed:43 7 in
  Particle_store.swap a c;
  Alcotest.(check int) "swap length a" 7 (Particle_store.length a);
  Alcotest.(check int) "swap length c" n (Particle_store.length c);
  Alcotest.(check (float 0.)) "swap moved contents" cx.(0) (Particle_store.x a 0);
  Alcotest.(check (float 0.)) "swap moved contents back" xs.(0) (Particle_store.x c 0)

let test_resize_down () =
  let n = 20 in
  let s, xs, _, _, lw, rd = filled ~seed:61 n in
  let cap = capacity s in
  Particle_store.resize s 7;
  Alcotest.(check int) "length truncated" 7 (Particle_store.length s);
  Alcotest.(check int) "capacity kept" cap (capacity s);
  for i = 0 to 6 do
    Alcotest.(check (float 0.)) "prefix x intact" xs.(i) (Particle_store.x s i);
    Alcotest.(check (float 0.)) "prefix log_w intact" lw.(i) (Particle_store.log_w s i);
    Alcotest.(check int) "prefix reader intact" rd.(i) (Particle_store.reader s i)
  done;
  Particle_store.resize s 0;
  Alcotest.(check int) "down to empty legal" 0 (Particle_store.length s);
  Util.check_raises_invalid "negative target" (fun () -> Particle_store.resize s (-1))

let test_copy_independent () =
  (* A whole-store blit into a fresh store is a copy, not a view. *)
  let n = 8 in
  let s, xs, _, _, _, _ = filled ~seed:59 n in
  let c = Particle_store.create ~n in
  Particle_store.blit ~src:s ~src_pos:0 ~dst:c ~dst_pos:0 ~len:n;
  Particle_store.set_loc s 0 ~x:99. ~y:0. ~z:0.;
  Alcotest.(check (float 0.)) "copy unaffected by source writes" xs.(0) (Particle_store.x c 0);
  Alcotest.(check int) "copy length" n (Particle_store.length c)

let test_backing_views_live_slabs () =
  let n = 9 in
  let s, xs, _, _, _, rd = filled ~seed:47 n in
  let bxs, _, _, blw, brd = Particle_store.backing s in
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.)) "backing x" xs.(i) (Float.Array.get bxs i);
    Alcotest.(check int) "backing reader" rd.(i) brd.(i)
  done;
  (* Writes through the backing are the store's contents, not a copy. *)
  Float.Array.set blw 2 (-1.5);
  Alcotest.(check (float 0.)) "backing write visible" (-1.5) (Particle_store.log_w s 2)

let test_fit_gaussian_bit_identical () =
  let n = 50 in
  let s, xs, ys, zs, lw, _ = filled ~seed:53 n in
  let w = Stats.normalize_log_weights lw in
  let rows = Array.init n (fun i -> [| xs.(i); ys.(i); zs.(i) |]) in
  let expected = Gaussian.fit ~w rows in
  let got = Particle_store.fit_gaussian ~w s in
  Alcotest.(check (array (float 0.)))
    "fit mean bit-identical" (Gaussian.mean expected) (Gaussian.mean got);
  Array.iteri
    (fun i row ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "fit cov row %d bit-identical" i)
        row
        (Gaussian.cov got).(i))
    (Gaussian.cov expected)

(* Reference for resize_up's appended tail: particle [k + t] is source
   particle [t mod k] jittered by one fresh gaussian per axis in x, y,
   z order, with log-weight and reader index copied verbatim. Drawing
   from an identically-seeded RNG reproduces the jitter bit-for-bit. *)
let check_resize_up ~seed ~k ~n ~sigma_x ~sigma_y ~sigma_z =
  let s, xs, ys, zs, lw, rd = filled ~seed k in
  Particle_store.resize_up s ~n ~rng:(mk_rng 991) ~sigma_x ~sigma_y ~sigma_z;
  Alcotest.(check int) "grown length" n (Particle_store.length s);
  for i = 0 to k - 1 do
    Alcotest.(check (float 0.)) "prefix x intact" xs.(i) (Particle_store.x s i);
    Alcotest.(check (float 0.)) "prefix y intact" ys.(i) (Particle_store.y s i);
    Alcotest.(check (float 0.)) "prefix z intact" zs.(i) (Particle_store.z s i);
    Alcotest.(check (float 0.)) "prefix log_w intact" lw.(i) (Particle_store.log_w s i);
    Alcotest.(check int) "prefix reader intact" rd.(i) (Particle_store.reader s i)
  done;
  let ref_rng = mk_rng 991 in
  for i = k to n - 1 do
    let j = (i - k) mod k in
    let ex = xs.(j) +. (sigma_x *. Rng.gaussian ref_rng ()) in
    let ey = ys.(j) +. (sigma_y *. Rng.gaussian ref_rng ()) in
    let ez = zs.(j) +. (sigma_z *. Rng.gaussian ref_rng ()) in
    Alcotest.(check (float 0.)) "tail x jittered replica" ex (Particle_store.x s i);
    Alcotest.(check (float 0.)) "tail y jittered replica" ey (Particle_store.y s i);
    Alcotest.(check (float 0.)) "tail z jittered replica" ez (Particle_store.z s i);
    Alcotest.(check (float 0.)) "tail log_w copied" lw.(j) (Particle_store.log_w s i);
    Alcotest.(check int) "tail reader copied" rd.(j) (Particle_store.reader s i)
  done

let test_resize_up_within_capacity () =
  (* Shrink first so the growth stays inside the existing slabs. *)
  let s, xs, _, _, _, _ = filled ~seed:67 16 in
  Particle_store.resize s 4;
  Particle_store.resize_up s ~n:12 ~rng:(mk_rng 5) ~sigma_x:0. ~sigma_y:0. ~sigma_z:0.;
  Alcotest.(check int) "grown back" 12 (Particle_store.length s);
  for i = 4 to 11 do
    (* sigma 0: exact cyclic replicas of the 4 survivors. *)
    Alcotest.(check (float 0.)) "zero-sigma replica" xs.((i - 4) mod 4)
      (Particle_store.x s i)
  done

let test_resize_up_capacity_crossing () =
  (* A freshly created store has capacity = length, so growing forces
     the realloc path, which must preserve the live prefix (the raw
     [resize] primitive deliberately does not). *)
  check_resize_up ~seed:71 ~k:5 ~n:23 ~sigma_x:0.3 ~sigma_y:0.2 ~sigma_z:0.1

let test_resize_up_invalid () =
  let s, _, _, _, _, _ = filled ~seed:73 6 in
  Util.check_raises_invalid "target below current" (fun () ->
      Particle_store.resize_up s ~n:5 ~rng:(mk_rng 1) ~sigma_x:0. ~sigma_y:0.
        ~sigma_z:0.);
  let empty = Particle_store.create ~n:0 in
  Util.check_raises_invalid "empty store has nothing to replicate" (fun () ->
      Particle_store.resize_up empty ~n:4 ~rng:(mk_rng 1) ~sigma_x:0. ~sigma_y:0.
        ~sigma_z:0.)

let qcheck_resize_up_replication =
  Util.qcheck ~count:60 "resize_up tail = seeded jitter reference"
    QCheck.(triple small_int (int_range 1 12) (int_range 0 40))
    (fun (seed, k, extra) ->
      check_resize_up ~seed ~k ~n:(k + extra) ~sigma_x:0.25 ~sigma_y:0.25
        ~sigma_z:0.05;
      true)

let qcheck_resize_up_fit_invariant =
  (* Growing with small jitter must not move the posterior summary
     much: the weighted Gaussian fit of the grown cloud (uniform
     weights, as after a resample) stays within a fraction of a foot of
     the original fit's mean. *)
  Util.qcheck ~count:40 "resize_up keeps the fitted mean"
    QCheck.(pair small_int (int_range 8 40))
    (fun (seed, k) ->
      let s, _, _, _, _, _ = filled ~seed k in
      for i = 0 to k - 1 do
        Particle_store.set_log_w s i 0.
      done;
      let w_before = Particle_store.normalized_weights s in
      let before = Particle_store.fit_gaussian ~w:w_before s in
      Particle_store.resize_up s ~n:(4 * k) ~rng:(mk_rng (seed + 77)) ~sigma_x:0.05
        ~sigma_y:0.05 ~sigma_z:0.05;
      let w_after = Particle_store.normalized_weights s in
      let after = Particle_store.fit_gaussian ~w:w_after s in
      let db = Gaussian.mean before and da = Gaussian.mean after in
      let dist =
        sqrt
          (((db.(0) -. da.(0)) ** 2.)
          +. ((db.(1) -. da.(1)) ** 2.)
          +. ((db.(2) -. da.(2)) ** 2.))
      in
      if dist > 0.2 then
        QCheck.Test.fail_reportf "fitted mean moved %.3f ft on grow" dist;
      true)

let suite =
  ( "particle_store",
    [
      Alcotest.test_case "create and resize" `Quick test_create_resize;
      Alcotest.test_case "accessor roundtrip" `Quick test_accessor_roundtrip;
      Alcotest.test_case "weight ops" `Quick test_weight_ops;
      Alcotest.test_case "weights_into bit-identical" `Quick test_weights_into_bit_identical;
      Alcotest.test_case "gather matches reference" `Quick test_gather_matches_reference;
      Alcotest.test_case "blit and swap" `Quick test_blit_and_swap;
      Alcotest.test_case "backing views live slabs" `Quick test_backing_views_live_slabs;
      Alcotest.test_case "fit_gaussian bit-identical" `Quick test_fit_gaussian_bit_identical;
      Alcotest.test_case "resize_down truncates in place" `Quick test_resize_down;
      Alcotest.test_case "resize_up within capacity" `Quick
        test_resize_up_within_capacity;
      Alcotest.test_case "resize_up across capacity" `Quick
        test_resize_up_capacity_crossing;
      Alcotest.test_case "resize_up invalid args" `Quick test_resize_up_invalid;
      Alcotest.test_case "copy independent" `Quick test_copy_independent;
      qcheck_resize_up_replication;
      qcheck_resize_up_fit_invariant;
    ] )
