type t = { apex : Vec3.t; heading : float; half_angle : float; range : float }

let make ~apex ~heading ~half_angle ~range =
  if not (half_angle > 0. && half_angle <= Float.pi) then
    invalid_arg "Cone.make: half_angle must be in (0, pi]";
  if not (range > 0.) then invalid_arg "Cone.make: range must be positive";
  { apex; heading; half_angle; range }

(* Wrap an angle into (-pi, pi]. *)
let wrap a =
  let two_pi = 2. *. Float.pi in
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a

let contains t (p : Vec3.t) =
  let dx = p.x -. t.apex.x and dy = p.y -. t.apex.y in
  Vec3.dist_xy t.apex p <= t.range
  && ((dx = 0. && dy = 0.) || Float.abs (wrap (atan2 dy dx -. t.heading)) <= t.half_angle)

let sample t rng =
  let u = Rfid_prob.Rng.float rng in
  let r = t.range *. sqrt u in
  let a = Rfid_prob.Rng.uniform rng ~lo:(t.heading -. t.half_angle) ~hi:(t.heading +. t.half_angle) in
  Vec3.make (t.apex.x +. (r *. cos a)) (t.apex.y +. (r *. sin a)) t.apex.z
