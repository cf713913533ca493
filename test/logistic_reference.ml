(* Reference for the bit-identity tests of [Rfid_prob.Logistic.fit]:
   the straightforward two-pass Newton fit, which recomputes every
   sample's sigmoid once for the gradient and again for the Hessian.
   The production fit fuses both passes and must return the same
   coefficients bit for bit. Returns the coefficient array. *)

let sigmoid = Rfid_prob.Logistic.sigmoid

let dot u v =
  if Array.length u <> Array.length v then invalid_arg "dot: size mismatch";
  let s = ref 0. in
  Array.iteri (fun i x -> s := !s +. (x *. v.(i))) u;
  !s

let max_iter = 400
let tol = 1e-8

let fit ?(l2 = 1e-4) ?init ?(nonpositive = []) ~x ~y ?w ~dim () =
  List.iter
    (fun j ->
      if j < 0 || j >= dim then invalid_arg "Logistic.fit: constraint index out of range")
    nonpositive;
  let n = Array.length x in
  if n = 0 then invalid_arg "Logistic.fit: empty data";
  if Array.length y <> n then invalid_arg "Logistic.fit: label length mismatch";
  Array.iter
    (fun row -> if Array.length row <> dim then invalid_arg "Logistic.fit: feature dim mismatch")
    x;
  let w = match w with Some w -> w | None -> Array.make n 1. in
  if Array.length w <> n then invalid_arg "Logistic.fit: weight length mismatch";
  let coef =
    match init with
    | Some c ->
        if Array.length c <> dim then invalid_arg "Logistic.fit: init dim mismatch";
        Array.copy c
    | None -> Array.make dim 0.
  in
  List.iter (fun j -> if coef.(j) > 0. then coef.(j) <- 0.) nonpositive;
  let gradient () =
    let g = Array.make dim 0. in
    for i = 0 to n - 1 do
      let p = sigmoid (dot coef x.(i)) in
      let err = ((if y.(i) then 1. else 0.) -. p) *. w.(i) in
      for j = 0 to dim - 1 do
        g.(j) <- g.(j) +. (err *. x.(i).(j))
      done
    done;
    for j = 0 to dim - 1 do
      g.(j) <- g.(j) -. (l2 *. coef.(j))
    done;
    g
  in
  let neg_hessian () =
    (* H = -(X^T S X + l2 I) with S = diag(w p (1-p)); we build X^T S X
       + l2 I, which is SPD, and take a Newton step by solving it. *)
    let h = Array.make_matrix dim dim 0. in
    for i = 0 to n - 1 do
      let p = sigmoid (dot coef x.(i)) in
      let s = w.(i) *. p *. (1. -. p) in
      if s > 0. then
        for j = 0 to dim - 1 do
          for k = 0 to dim - 1 do
            h.(j).(k) <- h.(j).(k) +. (s *. x.(i).(j) *. x.(i).(k))
          done
        done
    done;
    for j = 0 to dim - 1 do
      h.(j).(j) <- h.(j).(j) +. l2
    done;
    h
  in
  let rec iterate iter =
    if iter >= max_iter then ()
    else begin
      let g = gradient () in
      (* Active set: a constrained coordinate sitting on its bound with
         the gradient pushing outward stays fixed this iteration; the
         Newton system is solved over the free coordinates only, so the
         projection cannot fight the step direction. *)
      let free =
        List.filter
          (fun j -> not (List.mem j nonpositive && coef.(j) >= 0. && g.(j) > 0.))
          (List.init dim Fun.id)
      in
      let nf = List.length free in
      let step = Array.make dim 0. in
      if nf > 0 then begin
        let free = Array.of_list free in
        let h = neg_hessian () in
        let sub_h = Array.init nf (fun a -> Array.init nf (fun b -> h.(free.(a)).(free.(b)))) in
        let sub_g = Array.init nf (fun a -> g.(free.(a))) in
        let sub_step =
          match Rfid_prob.Linalg.solve_spd sub_h sub_g with
          | delta -> delta
          | exception Invalid_argument _ ->
              (* Singular Hessian: damped gradient ascent fallback. *)
              Array.map (fun gi -> 0.01 *. gi) sub_g
        in
        Array.iteri (fun a j -> step.(j) <- sub_step.(a)) free
      end;
      (* Trust region: on (near-)separable data the Newton step blows up
         because the Hessian degenerates while the gradient does not;
         cap the per-iteration move so coefficients stay finite. *)
      let norm = sqrt (Array.fold_left (fun a s -> a +. (s *. s)) 0. step) in
      let scale = if norm > 10. then 10. /. norm else 1. in
      let max_change = ref 0. in
      for j = 0 to dim - 1 do
        let before = coef.(j) in
        coef.(j) <- coef.(j) +. (scale *. step.(j));
        if List.mem j nonpositive && coef.(j) > 0. then coef.(j) <- 0.;
        max_change := Float.max !max_change (Float.abs (coef.(j) -. before))
      done;
      if !max_change > tol then iterate (iter + 1)
    end
  in
  iterate 0;
  { Rfid_prob.Logistic.coef }
