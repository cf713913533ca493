let log_sum_exp a =
  let n = Array.length a in
  if n = 0 then neg_infinity
  else begin
    (* for-loop rather than [Array.fold_left Float.max]: the generic
       fold boxes the float accumulator on every iteration. *)
    let m = ref neg_infinity in
    for i = 0 to n - 1 do
      m := Float.max !m (Array.unsafe_get a i)
    done;
    let m = !m in
    if m = neg_infinity then neg_infinity
    else begin
      let s = ref 0. in
      for i = 0 to n - 1 do
        s := !s +. exp (a.(i) -. m)
      done;
      m +. log !s
    end
  end

let normalize_log_weights_in_place lw =
  let n = Array.length lw in
  let z = log_sum_exp lw in
  if z = neg_infinity then Array.fill lw 0 n (1. /. float_of_int n)
  else
    for i = 0 to n - 1 do
      lw.(i) <- exp (lw.(i) -. z)
    done

let normalize_log_weights lw =
  let w = Array.copy lw in
  normalize_log_weights_in_place w;
  w

let normalize_log_weights_into ~src ~dst =
  if Array.length dst <> Array.length src then
    invalid_arg "Stats.normalize_log_weights_into: length mismatch";
  Array.blit src 0 dst 0 (Array.length src);
  normalize_log_weights_in_place dst

let normalize_in_place w =
  let n = Array.length w in
  let total = Array.fold_left ( +. ) 0. w in
  if not (total > 0.) then Array.fill w 0 n (1. /. float_of_int n)
  else
    for i = 0 to n - 1 do
      w.(i) <- w.(i) /. total
    done

let normalize w =
  let w = Array.copy w in
  normalize_in_place w;
  w

let effective_sample_size w =
  let sumsq = ref 0. in
  for i = 0 to Array.length w - 1 do
    let x = Array.unsafe_get w i in
    sumsq := !sumsq +. (x *. x)
  done;
  if !sumsq = 0. then 0. else 1. /. !sumsq

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let m = mean a in
    let s = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a in
    s /. float_of_int n
  end
