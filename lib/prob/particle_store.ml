(* Structure-of-arrays particle slab. Every field lives in an unboxed
   [floatarray] (or flat [int array]), so the filter hot loops touch
   contiguous float data with no per-particle records, no boxed
   [Vec3.t]s and no per-epoch reallocation: stores are created once and
   then resized/gathered/swapped in place.

   Numerical contract: every routine here that replaces an AoS loop
   from the filters performs the identical floating-point operations in
   the identical order, so switching a filter to this module changes
   its allocation profile and nothing else (golden-trace tests hold the
   filters to that). *)

module FA = Float.Array

type t = {
  mutable n : int;  (* live particles; slabs may have spare capacity *)
  mutable xs : floatarray;
  mutable ys : floatarray;
  mutable zs : floatarray;
  mutable lw : floatarray;  (* per-particle log weight *)
  mutable reader_idx : int array;
}

let create ~n =
  if n < 0 then invalid_arg "Particle_store.create: negative size";
  let cap = Int.max n 1 in
  {
    n;
    xs = FA.make cap 0.;
    ys = FA.make cap 0.;
    zs = FA.make cap 0.;
    lw = FA.make cap 0.;
    reader_idx = Array.make cap 0;
  }

let length t = t.n
let capacity t = FA.length t.xs

(* Grow-only reallocation; contents are unspecified after a growing
   [resize] — callers fill [0, n) before reading. *)
let resize t n =
  if n < 0 then invalid_arg "Particle_store.resize: negative size";
  if n > capacity t then begin
    let cap = Int.max n (2 * capacity t) in
    t.xs <- FA.make cap 0.;
    t.ys <- FA.make cap 0.;
    t.zs <- FA.make cap 0.;
    t.lw <- FA.make cap 0.;
    t.reader_idx <- Array.make cap 0
  end;
  t.n <- n

(* Budget grow: cyclic replication with per-axis Gaussian jitter. New
   particle [k + i] copies particle [i mod k] (log weight and reader
   pointer included) and perturbs each coordinate by [sigma_* *
   gaussian]. Three deviates are drawn per new particle in x, y, z
   order from [rng] alone, so results depend only on the generator
   state — the filters pass their per-(object, epoch) keyed substream,
   making growth independent of where the object sits in the pass. *)
let resize_up t ~n ~rng ~sigma_x ~sigma_y ~sigma_z =
  let k = t.n in
  if k = 0 then invalid_arg "Particle_store.resize_up: empty store";
  if n < k then invalid_arg "Particle_store.resize_up: target below current length";
  if n > capacity t then begin
    (* [resize] reallocates without preserving contents on growth; keep
       the old slabs and blit the live prefix across. *)
    let xs = t.xs and ys = t.ys and zs = t.zs and lw = t.lw in
    let reader_idx = t.reader_idx in
    resize t n;
    FA.blit xs 0 t.xs 0 k;
    FA.blit ys 0 t.ys 0 k;
    FA.blit zs 0 t.zs 0 k;
    FA.blit lw 0 t.lw 0 k;
    Array.blit reader_idx 0 t.reader_idx 0 k
  end
  else t.n <- n;
  for i = k to n - 1 do
    let j = (i - k) mod k in
    FA.unsafe_set t.xs i
      (FA.unsafe_get t.xs j +. (sigma_x *. Rng.gaussian rng ()));
    FA.unsafe_set t.ys i
      (FA.unsafe_get t.ys j +. (sigma_y *. Rng.gaussian rng ()));
    FA.unsafe_set t.zs i
      (FA.unsafe_get t.zs j +. (sigma_z *. Rng.gaussian rng ()));
    FA.unsafe_set t.lw i (FA.unsafe_get t.lw j);
    Array.unsafe_set t.reader_idx i (Array.unsafe_get t.reader_idx j)
  done

let swap a b =
  let n = a.n and xs = a.xs and ys = a.ys and zs = a.zs and lw = a.lw in
  let reader_idx = a.reader_idx in
  a.n <- b.n;
  a.xs <- b.xs;
  a.ys <- b.ys;
  a.zs <- b.zs;
  a.lw <- b.lw;
  a.reader_idx <- b.reader_idx;
  b.n <- n;
  b.xs <- xs;
  b.ys <- ys;
  b.zs <- zs;
  b.lw <- lw;
  b.reader_idx <- reader_idx

let check t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Particle_store.%s: index %d out of [0, %d)" name i t.n)

let x t i =
  check t i "x";
  FA.unsafe_get t.xs i

let y t i =
  check t i "y";
  FA.unsafe_get t.ys i

let z t i =
  check t i "z";
  FA.unsafe_get t.zs i

let log_w t i =
  check t i "log_w";
  FA.unsafe_get t.lw i

let reader t i =
  check t i "reader";
  Array.unsafe_get t.reader_idx i

let set_loc t i ~x ~y ~z =
  check t i "set_loc";
  FA.unsafe_set t.xs i x;
  FA.unsafe_set t.ys i y;
  FA.unsafe_set t.zs i z

let set_log_w t i w =
  check t i "set_log_w";
  FA.unsafe_set t.lw i w

let set_reader t i r =
  check t i "set_reader";
  Array.unsafe_set t.reader_idx i r

(* Unsafe accessors for the inner weighting loops; bounds are
   established once by the caller. *)
let unsafe_x t i = FA.unsafe_get t.xs i
let unsafe_y t i = FA.unsafe_get t.ys i
let unsafe_z t i = FA.unsafe_get t.zs i

let max_log_w t =
  let m = ref neg_infinity in
  for i = 0 to t.n - 1 do
    m := Float.max !m (FA.unsafe_get t.lw i)
  done;
  !m

let shift_log_w t d =
  for i = 0 to t.n - 1 do
    FA.unsafe_set t.lw i (FA.unsafe_get t.lw i -. d)
  done

(* Normalized linear weights of the current log weights, written into a
   caller buffer of length exactly [n] — the in-place replacement for
   [Array.map (fun p -> p.log_w) parts |> Stats.normalize_log_weights]. *)
let weights_into t dst =
  if Array.length dst <> t.n then
    invalid_arg "Particle_store.weights_into: buffer length mismatch";
  for i = 0 to t.n - 1 do
    Array.unsafe_set dst i (FA.unsafe_get t.lw i)
  done;
  Stats.normalize_log_weights_in_place dst

let normalized_weights t =
  let w = Array.make t.n 0. in
  weights_into t w;
  w

(* Resample gather: [dst.(i) <- copy of src.(idx.(i))] with log weight
   reset to 0 — the SoA form of rebuilding a particle array from
   resampled source indices. [dst] is resized to [n]; [src] and [dst]
   must be distinct stores. *)
let gather ~src ~dst idx ~n =
  if src == dst then invalid_arg "Particle_store.gather: src and dst must differ";
  if Array.length idx < n then invalid_arg "Particle_store.gather: index buffer short";
  resize dst n;
  for i = 0 to n - 1 do
    let j = Array.unsafe_get idx i in
    if j < 0 || j >= src.n then invalid_arg "Particle_store.gather: index out of range";
    FA.unsafe_set dst.xs i (FA.unsafe_get src.xs j);
    FA.unsafe_set dst.ys i (FA.unsafe_get src.ys j);
    FA.unsafe_set dst.zs i (FA.unsafe_get src.zs j);
    FA.unsafe_set dst.lw i 0.;
    Array.unsafe_set dst.reader_idx i (Array.unsafe_get src.reader_idx j)
  done

(* Range copy across stores (all columns). The unfactorized filter
   keeps a J*N slab of object locations (row per joint particle) and
   resamples by blitting whole rows into a spare slab. *)
let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 then invalid_arg "Particle_store.blit: negative length";
  if src_pos < 0 || src_pos + len > src.n then
    invalid_arg "Particle_store.blit: source range out of bounds";
  if dst_pos < 0 || dst_pos + len > dst.n then
    invalid_arg "Particle_store.blit: destination range out of bounds";
  FA.blit src.xs src_pos dst.xs dst_pos len;
  FA.blit src.ys src_pos dst.ys dst_pos len;
  FA.blit src.zs src_pos dst.zs dst_pos len;
  FA.blit src.lw src_pos dst.lw dst_pos len;
  Array.blit src.reader_idx src_pos dst.reader_idx dst_pos len

(* Moment-matched 3-D Gaussian of the weighted particle cloud,
   bit-identical to [Gaussian.fit ~w (Array.map Vec3.to_array locs)]:
   same accumulation order per mean/covariance cell, same grouping of
   the weighted products. *)
let fit_gaussian ~w t =
  let n = t.n in
  if n = 0 then invalid_arg "Particle_store.fit_gaussian: empty store";
  if Array.length w <> n then
    invalid_arg "Particle_store.fit_gaussian: weight length mismatch";
  (* One unboxed accumulator per cell. The covariance is not
     symmetrized: [(wi *. dx) *. dy] and [(wi *. dy) *. dx] may round
     differently, and [Gaussian.fit] sums both. *)
  let mx = ref 0. and my = ref 0. and mz = ref 0. in
  for i = 0 to n - 1 do
    let wi = Array.unsafe_get w i in
    mx := !mx +. (wi *. FA.unsafe_get t.xs i);
    my := !my +. (wi *. FA.unsafe_get t.ys i);
    mz := !mz +. (wi *. FA.unsafe_get t.zs i)
  done;
  let mx = !mx and my = !my and mz = !mz in
  let cxx = ref 0. and cxy = ref 0. and cxz = ref 0. in
  let cyx = ref 0. and cyy = ref 0. and cyz = ref 0. in
  let czx = ref 0. and czy = ref 0. and czz = ref 0. in
  for i = 0 to n - 1 do
    let wi = Array.unsafe_get w i in
    let dx = FA.unsafe_get t.xs i -. mx in
    let dy = FA.unsafe_get t.ys i -. my in
    let dz = FA.unsafe_get t.zs i -. mz in
    cxx := !cxx +. (wi *. dx *. dx);
    cxy := !cxy +. (wi *. dx *. dy);
    cxz := !cxz +. (wi *. dx *. dz);
    cyx := !cyx +. (wi *. dy *. dx);
    cyy := !cyy +. (wi *. dy *. dy);
    cyz := !cyz +. (wi *. dy *. dz);
    czx := !czx +. (wi *. dz *. dx);
    czy := !czy +. (wi *. dz *. dy);
    czz := !czz +. (wi *. dz *. dz)
  done;
  Gaussian.create ~mean:[| mx; my; mz |]
    ~cov:
      [|
        [| !cxx; !cxy; !cxz |]; [| !cyx; !cyy; !cyz |]; [| !czx; !czy; !czz |];
      |]

(* The backing slabs, for batched consumers (e.g. the sensor model's
   per-epoch accumulation): one cross-module call can then loop over
   the whole store with intrinsic unboxed accesses, where a
   call-per-particle would box three floats in and one out each
   iteration (no flambda). Indices < [length t] are valid; the arrays
   are invalidated by [resize] and [swap]. *)
let backing t = (t.xs, t.ys, t.zs, t.lw, t.reader_idx)
