(* Dense growable bitset over non-negative ints, used by the filters as
   reusable scratch for scope/pending/inside sets. The representation is
   an [int array] of 62-usable-bit words plus a high-water mark, so
   [clear] and the ascending scans cost O(words touched so far), not
   O(capacity): a filter tracking ids up to 5000 sweeps ~81 words per
   epoch regardless of how large the backing array has grown. *)

let bits_per_word = Sys.int_size  (* 63 on 64-bit; every bit of the boxed-int payload *)

type t = {
  mutable words : int array;
  mutable hwm : int;  (* 1 + highest word index ever set since the last clear *)
  mutable card : int;
}

let create () = { words = Array.make 1 0; hwm = 0; card = 0 }

let cardinal t = t.card
let is_empty t = t.card = 0

(* Kernighan popcount: one iteration per set bit. The words here are
   sparse (a sensing scope is tens of ids), so this beats a SWAR
   popcount in practice and needs no 63-bit constant juggling. *)
let popcount w =
  let n = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr n
  done;
  !n

let ensure_word t wi =
  let len = Array.length t.words in
  if wi >= len then begin
    let cap = Int.max (wi + 1) (2 * len) in
    let bigger = Array.make cap 0 in
    Array.blit t.words 0 bigger 0 len;
    t.words <- bigger
  end

let mem t i =
  if i < 0 then false
  else begin
    let wi = i / bits_per_word in
    wi < t.hwm && t.words.(wi) land (1 lsl (i mod bits_per_word)) <> 0
  end

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative element";
  let wi = i / bits_per_word in
  ensure_word t wi;
  let b = 1 lsl (i mod bits_per_word) in
  let w = t.words.(wi) in
  if w land b = 0 then begin
    t.words.(wi) <- w lor b;
    t.card <- t.card + 1;
    if wi >= t.hwm then t.hwm <- wi + 1
  end

let clear t =
  Array.fill t.words 0 t.hwm 0;
  t.hwm <- 0;
  t.card <- 0

let union_into ~into src =
  ensure_word into (src.hwm - 1);
  for wi = 0 to src.hwm - 1 do
    let s = src.words.(wi) in
    if s <> 0 then begin
      let d = into.words.(wi) in
      let fresh = s land lnot d in
      if fresh <> 0 then begin
        into.words.(wi) <- d lor fresh;
        into.card <- into.card + popcount fresh
      end
    end
  done;
  if src.hwm > into.hwm then into.hwm <- src.hwm

let iter t f =
  for wi = 0 to t.hwm - 1 do
    let w = ref t.words.(wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      let low = !w land -(!w) in
      (* log2 of the isolated lowest bit, by logical shifting (the top
         word bit is the native sign bit, so arithmetic comparisons are
         off the table) — the loop runs once per set bit so the scan is
         ascending. *)
      let b = ref 0 and v = ref low in
      while !v <> 1 do
        v := !v lsr 1;
        incr b
      done;
      f (base + !b);
      w := !w land (!w - 1)
    done
  done

let fill_into t out =
  let n = ref 0 in
  for wi = 0 to t.hwm - 1 do
    let w = ref t.words.(wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      let low = !w land -(!w) in
      let b = ref 0 and v = ref low in
      while !v <> 1 do
        v := !v lsr 1;
        incr b
      done;
      out.(!n) <- base + !b;
      incr n;
      w := !w land (!w - 1)
    done
  done;
  !n

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc
