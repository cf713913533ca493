type t = {
  read_prob : d:float -> theta:float -> float;
  range : float;
  half_angle : float;
}

let deg x = x *. Float.pi /. 180.

let cone ?(rr_major = 1.0) () =
  if not (rr_major >= 0. && rr_major <= 1.) then
    invalid_arg "Truth_sensor.cone: rr_major must be in [0, 1]";
  let range = 3.0 in
  let major_half = deg 15. and minor_half = deg 22.5 in
  let read_prob ~d ~theta =
    let theta = Float.abs theta in
    if d > range || theta > minor_half then 0.
    else if theta <= major_half then rr_major
    else rr_major *. (1. -. ((theta -. major_half) /. (minor_half -. major_half)))
  in
  { read_prob; range; half_angle = minor_half }

let spherical ?(rr_center = 0.8) ?(range = 4.0) ?(angle_falloff = 2.0) () =
  if not (rr_center >= 0. && rr_center <= 1.) then
    invalid_arg "Truth_sensor.spherical: rr_center must be in [0, 1]";
  if not (range > 0.) then invalid_arg "Truth_sensor.spherical: range must be positive";
  if not (angle_falloff > 0.) then
    invalid_arg "Truth_sensor.spherical: angle_falloff must be positive";
  let fade_start = 0.8 *. range in
  let read_prob ~d ~theta =
    let theta = Float.abs theta in
    if d > range then 0.
    else begin
      let angular = Float.max 0. (1. -. (theta /. angle_falloff)) in
      let radial =
        if d <= fade_start then 1. else 1. -. ((d -. fade_start) /. (range -. fade_start))
      in
      rr_center *. angular *. radial
    end
  in
  { read_prob; range; half_angle = Float.min Float.pi angle_falloff }

let read_prob_at t ~reader_loc ~reader_heading ~tag_loc =
  let d, theta =
    Rfid_model.Sensor_model.geometry ~reader_loc ~reader_heading ~tag_loc
  in
  t.read_prob ~d ~theta
