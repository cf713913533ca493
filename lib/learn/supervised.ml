open Rfid_model

(* Weighted logistic fit over feature rows of {!Sensor_model.features}. *)
let fit_features ?(l2 = 1e-4) ?init ?w ~x ~outcomes () =
  let init = Option.map Sensor_model.to_coef init in
  (* Decay coefficients constrained non-positive — the paper's stated
     expectation, and the guard against extrapolation artifacts where
     the trace geometry leaves (d, theta) regions unobserved. *)
  let m =
    Rfid_prob.Logistic.fit ~l2 ?init ~nonpositive:[ 1; 2; 3; 4 ] ~x ~y:outcomes ?w
      ~dim:5 ()
  in
  Sensor_model.of_coef m.Rfid_prob.Logistic.coef

let fit_from_pairs ?l2 ?init ?w ~geometries ~outcomes () =
  let n = Array.length geometries in
  if n = 0 then invalid_arg "Supervised.fit_from_pairs: empty data";
  if Array.length outcomes <> n then
    invalid_arg "Supervised.fit_from_pairs: shape mismatch";
  let x = Array.map (fun (d, theta) -> Sensor_model.features ~d ~theta) geometries in
  fit_features ?l2 ?init ?w ~x ~outcomes ()

(* Distances (ft) the fit samples and the error grid spans. *)
let max_distance = 6.

let fit_sensor ?(samples = 20000) ~read_prob ~seed () =
  if samples <= 0 then invalid_arg "Supervised.fit_sensor: samples must be positive";
  let rng = Rfid_prob.Rng.create ~seed in
  (* Every geometry is drawn before any read outcome, the angle before
     the distance within a sample: the draw order the seed pins. *)
  let d = Float.Array.create samples and theta = Float.Array.create samples in
  let x =
    Array.init samples (fun i ->
        let t = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:Float.pi in
        let r = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:max_distance in
        Float.Array.set theta i t;
        Float.Array.set d i r;
        Sensor_model.features ~d:r ~theta:t)
  in
  let outcomes =
    Array.init samples (fun i ->
        Rfid_prob.Rng.bernoulli rng
          ~p:(read_prob ~d:(Float.Array.get d i) ~theta:(Float.Array.get theta i)))
  in
  fit_features ~x ~outcomes ()

let mean_abs_error model ~read_prob =
  let grid = 40 in
  let acc = ref 0. and n = ref 0 in
  for i = 0 to grid - 1 do
    for j = 0 to grid - 1 do
      let d = float_of_int i /. float_of_int (grid - 1) *. max_distance in
      let theta = float_of_int j /. float_of_int (grid - 1) *. Float.pi in
      let p_true = read_prob ~d ~theta in
      let p_model = Sensor_model.read_prob_at model ~d ~theta in
      acc := !acc +. Float.abs (p_true -. p_model);
      incr n
    done
  done;
  !acc /. float_of_int !n
