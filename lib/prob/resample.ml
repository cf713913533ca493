let check w =
  if Array.length w = 0 then invalid_arg "Resample: empty weights"

let check_out out ~n =
  if Array.length out < n then invalid_arg "Resample: output buffer shorter than n"

(* The [_into] variants consume identical RNG draws and produce
   identical indices to their allocating counterparts; they exist so
   the filter hot paths can resample into scratch-arena buffers with
   zero steady-state allocation. *)

let multinomial_into rng w ~n ~out =
  check w;
  check_out out ~n;
  for i = 0 to n - 1 do
    out.(i) <- Rng.categorical rng w
  done

let systematic_into rng w ~n ~out =
  check w;
  check_out out ~n;
  let total = Array.fold_left ( +. ) 0. w in
  if not (total > 0.) then
    (* Degenerate weights: fall back to uniform stride over indices. *)
    for i = 0 to n - 1 do
      out.(i) <- i mod Array.length w
    done
  else begin
    let m = Array.length w in
    let step = total /. float_of_int n in
    let u0 = Rng.float rng *. step in
    let acc = ref w.(0) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let u = u0 +. (float_of_int i *. step) in
      while !acc < u && !j < m - 1 do
        incr j;
        acc := !acc +. w.(!j)
      done;
      out.(i) <- !j
    done
  end

let systematic rng w ~n =
  check w;
  let out = Array.make n 0 in
  systematic_into rng w ~n ~out;
  out

let residual_into rng w ~n ~out =
  check w;
  check_out out ~n;
  let w = Stats.normalize w in
  let m = Array.length w in
  let filled = ref 0 in
  let residuals = Array.make m 0. in
  for i = 0 to m - 1 do
    let expected = float_of_int n *. w.(i) in
    let copies = int_of_float (Float.floor expected) in
    residuals.(i) <- expected -. float_of_int copies;
    for _ = 1 to copies do
      if !filled < n then begin
        out.(!filled) <- i;
        incr filled
      end
    done
  done;
  while !filled < n do
    out.(!filled) <- Rng.categorical rng residuals;
    incr filled
  done
