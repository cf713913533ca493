let max_line_bytes = 65536

type buffer = { buf : Buffer.t; mutable discarding : bool }
(* [discarding] is set once a line exceeds [max_line_bytes]: the rest of
   that line's bytes are dropped until its newline, at which point the
   single [Overflow] event has already been reported and framing
   resynchronizes on the next line. *)

let create_buffer () = { buf = Buffer.create 256; discarding = false }
let pending_bytes b = Buffer.length b.buf

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

type event = Line of string | Overflow

let feed b chunk =
  let events = ref [] in
  String.iter
    (fun c ->
      if c = '\n' then begin
        if b.discarding then b.discarding <- false
        else events := Line (strip_cr (Buffer.contents b.buf)) :: !events;
        Buffer.clear b.buf
      end
      else if b.discarding then ()
      else if Buffer.length b.buf >= max_line_bytes then begin
        b.discarding <- true;
        Buffer.clear b.buf;
        events := Overflow :: !events
      end
      else Buffer.add_char b.buf c)
    chunk;
  List.rev !events

(* ------------------------------------------------------------------ *)
(* Float rendering *)

(* The reply rule is "the first of [%.15g], [%.16g], [%.17g] whose
   [float_of_string] is the value again". Calling libc once per
   precision tried (and strtod once per candidate) made this the
   largest cost of a RANGE reply, so the candidates are derived here
   from one 17-digit libc conversion, checked with an exact fast path
   where one applies, and rendered in [%g]'s layout by hand. The bytes
   are those of the libc chain; test/test_serve.ml and the fuzzer's
   float target compare the two. *)

external format_float : string -> float -> string = "caml_format_float"

(* 10^k for k in [0, 22]: every one is an exact double. *)
let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* 10^k for k in [0, 17] as ints. *)
let int_pow10 = Array.init 18 (fun k -> int_of_float exact_pow10.(k))

(* [s] is libc's [%.(p-1)e] of a positive finite double: one digit, a
   point (p > 1), p - 1 digits, then [e], a sign and the exponent. *)
let sci_mantissa s p =
  let m = ref (Char.code (String.unsafe_get s 0) - 48) in
  for i = 2 to p do
    m := (!m * 10) + Char.code (String.unsafe_get s i) - 48
  done;
  !m

let sci_exponent s p =
  let x = ref 0 in
  for i = p + 3 to String.length s - 1 do
    x := (!x * 10) + Char.code (String.unsafe_get s i) - 48
  done;
  if String.unsafe_get s (p + 2) = '-' then - !x else !x

(* Write the [nd] low decimal digits of [m] (leading zeros included)
   into [b] at [pos .. pos + nd - 1]. *)
let put_digits b pos m nd =
  let m = ref m in
  for i = pos + nd - 1 downto pos do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done

(* [%.(p)g] of the value whose [p] significant digits are [m] (first
   digit at decimal exponent [x]): exponential style when [x < -4 || x
   >= p], fixed otherwise, with trailing zeros and a bare point dropped
   as [%g] does without the [#] flag. *)
let render ~neg m x p =
  let m = ref m and nd = ref p in
  while !m mod 10 = 0 do
    m := !m / 10;
    decr nd
  done;
  let m = !m and nd = !nd in
  let sign = if neg then 1 else 0 in
  if x < -4 || x >= p then begin
    (* d.ddde-XX: write the digits one place right, then move the
       first back over the slot the point takes *)
    let ax = abs x in
    let ed = if ax < 100 then 2 else 3 in
    let mant = if nd > 1 then nd + 1 else 1 in
    let b = Bytes.create (sign + mant + 2 + ed) in
    if neg then Bytes.unsafe_set b 0 '-';
    put_digits b (sign + 1) m nd;
    Bytes.unsafe_set b sign (Bytes.unsafe_get b (sign + 1));
    if nd > 1 then Bytes.unsafe_set b (sign + 1) '.';
    let e = sign + mant in
    Bytes.unsafe_set b e 'e';
    Bytes.unsafe_set b (e + 1) (if x < 0 then '-' else '+');
    put_digits b (e + 2) ax ed;
    Bytes.unsafe_to_string b
  end
  else if x < 0 then begin
    (* 0.000ddd *)
    let lead = -x - 1 in
    let b = Bytes.create (sign + 2 + lead + nd) in
    if neg then Bytes.unsafe_set b 0 '-';
    Bytes.unsafe_set b sign '0';
    Bytes.unsafe_set b (sign + 1) '.';
    Bytes.unsafe_fill b (sign + 2) lead '0';
    put_digits b (sign + 2 + lead) m nd;
    Bytes.unsafe_to_string b
  end
  else if nd <= x + 1 then begin
    (* an integer: the digits, then zeros up to the units place *)
    let b = Bytes.create (sign + x + 1) in
    if neg then Bytes.unsafe_set b 0 '-';
    put_digits b sign m nd;
    Bytes.unsafe_fill b (sign + nd) (x + 1 - nd) '0';
    Bytes.unsafe_to_string b
  end
  else begin
    (* ddd.ddd, built as in the exponential case *)
    let b = Bytes.create (sign + nd + 1) in
    if neg then Bytes.unsafe_set b 0 '-';
    put_digits b (sign + 1) m nd;
    Bytes.blit b (sign + 1) b sign (x + 1);
    Bytes.unsafe_set b (sign + x + 1) '.';
    Bytes.unsafe_to_string b
  end

(* The [%.(p)g] rendering of the [p]-digit candidate [m] (first digit at
   decimal exponent [x]) if it reads back as [v], else [""]. Where [m]
   fits in 53 bits and the power-of-ten scale is at most 22, one IEEE
   multiply or divide of two exact doubles is the correctly rounded
   reading, which is what strtod returns (Clinger's fast path);
   elsewhere strtod itself decides. *)
let render_if_exact ~neg ~v m x p =
  let k = x - p + 1 in
  if m <= 1 lsl 53 && k >= -22 && k <= 22 then begin
    let r =
      if k >= 0 then float_of_int m *. Array.unsafe_get exact_pow10 k
      else float_of_int m /. Array.unsafe_get exact_pow10 (-k)
    in
    if r = Float.abs v then render ~neg m x p else ""
  end
  else
    let s = render ~neg m x p in
    if float_of_string s = v then s else ""

(* Candidate at [p] (15 or 16) digits, rounded from the 17 digits
   [m17] (exponent [x17]). Rounding a rounded value can err only when
   the dropped digits are exactly one half (5 or 50), where libc is
   asked at [p] digits instead. *)
let at_precision ~neg ~v ~a m17 x17 p =
  let div = Array.unsafe_get int_pow10 (17 - p) in
  let half = div / 2 in
  let q = m17 / div and r = m17 mod div in
  if r = half then
    let s = format_float (if p = 15 then "%.14e" else "%.15e") a in
    render_if_exact ~neg ~v (sci_mantissa s p) (sci_exponent s p) p
  else
    let q = if r > half then q + 1 else q in
    if q = Array.unsafe_get int_pow10 p then
      render_if_exact ~neg ~v (Array.unsafe_get int_pow10 (p - 1)) (x17 + 1) p
    else render_if_exact ~neg ~v q x17 p

let float_str v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else if v = 0. then if Float.sign_bit v then "-0" else "0"
  else
    let neg = v < 0. in
    let a = Float.abs v in
    let s17 = format_float "%.16e" a in
    let m17 = sci_mantissa s17 17 and x17 = sci_exponent s17 17 in
    let s = at_precision ~neg ~v ~a m17 x17 15 in
    if s <> "" then s
    else
      let s = at_precision ~neg ~v ~a m17 x17 16 in
      (* 17 digits always read back *)
      if s <> "" then s else render ~neg m17 x17 17
