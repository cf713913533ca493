type mat = float array array

let dim a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Linalg: empty matrix";
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Linalg: matrix not square") a;
  n

let copy a = Array.map Array.copy a

let transpose a =
  let n = dim a in
  Array.init n (fun i -> Array.init n (fun j -> a.(j).(i)))

let mat_mul a b =
  let n = dim a in
  if dim b <> n then invalid_arg "Linalg.mat_mul: size mismatch";
  Array.init n (fun i ->
      Array.init n (fun j ->
          let s = ref 0. in
          for k = 0 to n - 1 do
            s := !s +. (a.(i).(k) *. b.(k).(j))
          done;
          !s))

let mat_vec a v =
  let n = dim a in
  if Array.length v <> n then invalid_arg "Linalg.mat_vec: size mismatch";
  Array.init n (fun i ->
      let s = ref 0. in
      for j = 0 to n - 1 do
        s := !s +. (a.(i).(j) *. v.(j))
      done;
      !s)

let cholesky_attempt a n =
  let l = Array.make_matrix n n 0. in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       for j = 0 to i do
         let s = ref a.(i).(j) in
         for k = 0 to j - 1 do
           s := !s -. (l.(i).(k) *. l.(j).(k))
         done;
         if i = j then
           if !s <= 0. then begin
             ok := false;
             raise Exit
           end
           else l.(i).(j) <- sqrt !s
         else l.(i).(j) <- !s /. l.(j).(j)
       done
     done
   with Exit -> ());
  if !ok then Some l else None

let cholesky a =
  let n = dim a in
  match cholesky_attempt a n with
  | Some l -> l
  | None -> (
      (* Jitter rescue for semidefinite covariance matrices (e.g. all
         particles collapsed to one point). *)
      let jittered = copy a in
      let trace = ref 0. in
      for i = 0 to n - 1 do
        trace := !trace +. Float.abs a.(i).(i)
      done;
      let eps = Float.max 1e-12 (1e-9 *. !trace) in
      for i = 0 to n - 1 do
        jittered.(i).(i) <- jittered.(i).(i) +. eps
      done;
      match cholesky_attempt jittered n with
      | Some l -> l
      | None -> invalid_arg "Linalg.cholesky: matrix not positive definite")

let solve_cholesky l b =
  let n = dim l in
  if Array.length b <> n then invalid_arg "Linalg.solve_cholesky: size mismatch";
  (* Forward substitution: l y = b *)
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (l.(i).(k) *. y.(k))
    done;
    y.(i) <- !s /. l.(i).(i)
  done;
  (* Backward substitution: l^T x = y *)
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (l.(k).(i) *. x.(k))
    done;
    x.(i) <- !s /. l.(i).(i)
  done;
  x

let solve_spd a b = solve_cholesky (cholesky a) b
