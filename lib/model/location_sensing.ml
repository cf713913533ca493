open Rfid_geom

type t = { bias : Vec3.t; sigma : Vec3.t }

let create ?(bias = Vec3.zero) ?(sigma = Vec3.make 0.01 0.01 0.01) () =
  if sigma.Vec3.x < 0. || sigma.Vec3.y < 0. || sigma.Vec3.z < 0. then
    invalid_arg "Location_sensing.create: negative sigma";
  { bias; sigma }

let default = create ()

let sample_report t rng true_loc =
  let open Rfid_prob in
  Vec3.add (Vec3.add true_loc t.bias)
    (Vec3.make
       (Rng.gaussian rng ~sigma:t.sigma.Vec3.x ())
       (Rng.gaussian rng ~sigma:t.sigma.Vec3.y ())
       (Rng.gaussian rng ~sigma:t.sigma.Vec3.z ()))

(* The reader-weighting hot path: one cross-module call per epoch
   against the sensor memo's pose slabs instead of one call per reader
   particle (which, without flambda, boxes a [Vec3.t] pair and three
   floats per call). The per-axis term is the Gaussian log-density at
   mu = 0, [-0.5 (z^2 + log 2pi) - log sigma], and the three terms sum
   left-to-right. A zero sigma on an axis means
   that axis is not observed (e.g. a 2-D positioning system reporting a
   constant z): it contributes nothing, rather than collapsing every
   particle's weight to -infinity. *)
let log_2pi = log (2. *. Float.pi)

let log_pdf_poses_into t ~reported ~rx ~ry ~rz ~n out =
  if Array.length out < n then
    invalid_arg "Location_sensing.log_pdf_poses_into: output shorter than pose set";
  let bx = t.bias.Vec3.x and by = t.bias.Vec3.y and bz = t.bias.Vec3.z in
  let sx = t.sigma.Vec3.x and sy = t.sigma.Vec3.y and sz = t.sigma.Vec3.z in
  let px = reported.Vec3.x and py = reported.Vec3.y and pz = reported.Vec3.z in
  for i = 0 to n - 1 do
    let dx = px -. (Float.Array.unsafe_get rx i +. bx) in
    let dy = py -. (Float.Array.unsafe_get ry i +. by) in
    let dz = pz -. (Float.Array.unsafe_get rz i +. bz) in
    let gx =
      if sx = 0. then 0.
      else begin
        let z = dx /. sx in
        (-0.5 *. ((z *. z) +. log_2pi)) -. log sx
      end
    in
    let gy =
      if sy = 0. then 0.
      else begin
        let z = dy /. sy in
        (-0.5 *. ((z *. z) +. log_2pi)) -. log sy
      end
    in
    let gz =
      if sz = 0. then 0.
      else begin
        let z = dz /. sz in
        (-0.5 *. ((z *. z) +. log_2pi)) -. log sz
      end
    in
    Array.unsafe_set out i (gx +. gy +. gz)
  done
