open Rfid_geom

type t = {
  velocity : Vec3.t;
  sigma : Vec3.t;
  heading_drift : float;
  heading_sigma : float;
}

let check_sigma (s : Vec3.t) name =
  if s.Vec3.x < 0. || s.Vec3.y < 0. || s.Vec3.z < 0. then
    invalid_arg (name ^ ": negative sigma")

let create ?(velocity = Vec3.make 0. 0.1 0.) ?(sigma = Vec3.make 0.01 0.01 0.01)
    ?(heading_drift = 0.) ?(heading_sigma = 0.01) () =
  check_sigma sigma "Motion_model.create";
  if heading_sigma < 0. then invalid_arg "Motion_model.create: negative heading sigma";
  { velocity; sigma; heading_drift; heading_sigma }

let default = create ()

let sample_next t rng (prev : Reader_state.t) =
  let open Rfid_prob in
  let noise =
    Vec3.make
      (Rng.gaussian rng ~sigma:t.sigma.Vec3.x ())
      (Rng.gaussian rng ~sigma:t.sigma.Vec3.y ())
      (Rng.gaussian rng ~sigma:t.sigma.Vec3.z ())
  in
  let loc = Vec3.add prev.Reader_state.loc (Vec3.add t.velocity noise) in
  let heading =
    prev.Reader_state.heading +. t.heading_drift
    +. Rng.gaussian rng ~sigma:t.heading_sigma ()
  in
  Reader_state.make ~loc ~heading
