(* State representation: the single 64-bit SplitMix64 state, bit-cast
   into a 1-element [floatarray]. The obvious [{ mutable state : int64 }]
   boxes a fresh [Int64] on every write — ~3 words per draw, and the
   filters draw millions of times per run. A [floatarray] slot is a raw
   64-bit cell, and [Int64.bits_of_float] / [Int64.float_of_bits] are
   [@@unboxed] [@@noalloc] externals, so advancing the state is a pure
   register/memory move: no FP arithmetic ever touches the value, every
   64-bit pattern (including NaN payloads) round-trips exactly.

   The sampling hot paths ([float], [int], [bernoulli], [uniform],
   [gaussian], [for_key_into]) hand-inline the
   advance-and-mix sequence: without flambda, even a same-module call to
   a [mix64] helper boxes its [int64] argument, intermediates and result.
   The inlined bodies are the original [bits64]/[mix64] operations
   verbatim, in the same order, so streams are bit-identical to the
   record-based implementation. Cold paths (create/split/checkpointing)
   keep the shared helper. *)
type t = floatarray

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from SplitMix64: xor-shift multiply mixing of the Weyl
   counter. Constants are Stafford's Mix13 variant. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Float.Array.create 1 in
  Float.Array.unsafe_set t 0 (Int64.float_of_bits s);
  t

let state t = Int64.bits_of_float (Float.Array.unsafe_get t 0)

let create ~seed = of_state (mix64 (Int64.of_int seed))
let bits64 t =
  let s = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
  Float.Array.unsafe_set t 0 (Int64.float_of_bits s);
  mix64 s

let split t = of_state (mix64 (bits64 t))

(* Keyed substream derivation: a pure function of the base state and the
   key — the base generator is NOT advanced, so the substream for a
   given key is the same no matter how many other substreams were
   derived before it, or in what order. Two mixing rounds separate keys
   that differ in few bits (consecutive object ids and epochs are
   exactly that case). Written into a caller-owned generator (a
   scratch-arena slot in the filter hot paths), so it allocates nothing.
   [mix64] inlined twice — see the header comment. *)
let for_key_into t ~key dst =
  let z = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) (Int64.mul golden_gamma key) in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  let z = Int64.logxor z golden_gamma in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Float.Array.unsafe_set dst 0 (Int64.float_of_bits z)

(* Pack two non-negative ints into one key. The first component is
   spread by a large odd multiplier, so distinct (id, epoch) pairs with
   small components — the only ones that occur — map to distinct keys
   far apart in key space. *)
let key_pair a b = Int64.(add (mul (of_int a) 0x2545F4914F6CDD1DL) (of_int b))

(* 53 random bits scaled into [0,1). Advance + mix inlined. *)
let float t =
  let s = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
  Float.Array.unsafe_set t 0 (Int64.float_of_bits s);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53

let uniform t ~lo ~hi =
  if not (lo <= hi) then invalid_arg "Rng.uniform: lo > hi";
  let s = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
  Float.Array.unsafe_set t 0 (Int64.float_of_bits s);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  let u = Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53 in
  lo +. ((hi -. lo) *. u)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-38 for any
     bound below 2^24, and all our bounds are small. Keep 62 bits so the
     value is a non-negative OCaml int. *)
  let s = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
  Float.Array.unsafe_set t 0 (Int64.float_of_bits s);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  let bits = Int64.to_int (Int64.shift_right_logical z 2) in
  bits mod n

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t ~p =
  let p = Float.max 0. (Float.min 1. p) in
  let s = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
  Float.Array.unsafe_set t 0 (Int64.float_of_bits s);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  let u = Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53 in
  u < p

let gaussian t ?(sigma = 1.) () =
  if sigma < 0. then invalid_arg "Rng.gaussian: negative sigma";
  (* Marsaglia polar method; the second deviate is discarded to keep the
     generator state independent of call interleaving. The rejection
     loop is a [while] (not a recursive closure, which would allocate)
     and the uniform draws are inlined; the draw sequence and arithmetic
     match the original recursive formulation exactly. *)
  let result = ref 0. in
  let rejected = ref true in
  while !rejected do
    let s1 = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
    Float.Array.unsafe_set t 0 (Int64.float_of_bits s1);
    let z = Int64.(mul (logxor s1 (shift_right_logical s1 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    let z = Int64.(logxor z (shift_right_logical z 31)) in
    let u = (2. *. (Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53)) -. 1. in
    let s2 = Int64.add (Int64.bits_of_float (Float.Array.unsafe_get t 0)) golden_gamma in
    Float.Array.unsafe_set t 0 (Int64.float_of_bits s2);
    let z = Int64.(mul (logxor s2 (shift_right_logical s2 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    let z = Int64.(logxor z (shift_right_logical z 31)) in
    let v = (2. *. (Int64.to_float (Int64.shift_right_logical z 11) *. 0x1p-53)) -. 1. in
    let s = (u *. u) +. (v *. v) in
    if not (s >= 1. || s = 0.) then begin
      result := u *. sqrt (-2. *. log s /. s);
      rejected := false
    end
  done;
  (* Adding 0. turns the -0. that [sigma = 0.] can give into +0. *)
  0. +. (sigma *. !result)

let categorical t w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Rng.categorical: empty weights";
  (* for-loop: [Array.fold_left] boxes the float accumulator on every
     element, and this runs once per drawn pointer in the filters. *)
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. Array.unsafe_get w i
  done;
  let total = !total in
  if not (total > 0.) then invalid_arg "Rng.categorical: weights sum to 0";
  let u = float t *. total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if u < acc then i else scan (i + 1) acc
  in
  scan 0 0.
