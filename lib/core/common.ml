open Rfid_geom
open Rfid_model

module Sensor_cache = struct
  type t = { range : float; half_angle : float }

  let create ~threshold ~max_range sensor =
    let range = Float.min max_range (Sensor_model.detection_range ~threshold sensor) in
    let half_angle =
      Sensor_model.detection_half_angle ~threshold sensor ~d:(Float.max 0.1 (range /. 2.))
    in
    { range; half_angle }
end

let init_cone (cache : Sensor_cache.t) ~overestimate ~reader_loc ~heading =
  let range = Float.max 0.5 (overestimate *. cache.Sensor_cache.range) in
  let half_angle =
    Float.min Float.pi (Float.max 0.2 (overestimate *. cache.Sensor_cache.half_angle))
  in
  Cone.make ~apex:reader_loc ~heading ~half_angle ~range

let sample_initial_location cache ~overestimate ~world ~reader_loc ~heading rng =
  let cone = init_cone cache ~overestimate ~reader_loc ~heading in
  let p = Cone.sample cone rng in
  if World.contains world p then p else World.clamp_to_shelves world p

(* Batched evidence-driven (re)initialization: every [step]-th particle
   of [store] draws a reader pointer and a fresh cone-sampled location,
   written straight into the slabs. This is [fresh_particle_into] of the
   factored filter unrolled: the cone's range/half-angle depend only on
   the cache, so they are computed once; the apex/heading come from the
   sensor memo's pose slabs (refreshed from the very reader states the
   scalar path read); [Cone.sample], [World.contains] and
   [World.clamp_to_shelves] are replicated operation for operation on
   scalars. Same draws from [rng] in the same order, same stored floats,
   bit for bit — but no [Vec3.t]/[Cone.t] per particle, which made the
   init path the dominant steady-state allocator. *)
let fill_fresh_particles cache ~overestimate ~world ~pre ~rw ~rng ~store ~step =
  if step <= 0 then invalid_arg "Common.fill_fresh_particles: step must be positive";
  let range = Float.max 0.5 (overestimate *. cache.Sensor_cache.range) in
  let half_angle =
    Float.min Float.pi (Float.max 0.2 (overestimate *. cache.Sensor_cache.half_angle))
  in
  let rx, ry, rz, rh = Sensor_model.pre_poses pre in
  let shelves = World.shelves world in
  let ns = Array.length shelves in
  let n = Rfid_prob.Particle_store.length store in
  let xs, ys, zs, lw, ridx = Rfid_prob.Particle_store.backing store in
  let j = ref 0 and inside = ref false in
  let best = ref (-1) and best_d = ref infinity in
  let i = ref 0 in
  while !i < n do
    let idx = Rfid_prob.Rng.categorical rng rw in
    let ax = Float.Array.unsafe_get rx idx in
    let ay = Float.Array.unsafe_get ry idx in
    let az = Float.Array.unsafe_get rz idx in
    let ah = Float.Array.unsafe_get rh idx in
    (* [Cone.sample] on the cone with apex/heading at pose [idx]. *)
    let u = Rfid_prob.Rng.float rng in
    let r = range *. sqrt u in
    let a = Rfid_prob.Rng.uniform rng ~lo:(ah -. half_angle) ~hi:(ah +. half_angle) in
    let x = ax +. (r *. cos a) in
    let y = ay +. (r *. sin a) in
    (* [World.contains]: first shelf surface containing (x, y). *)
    j := 0;
    inside := false;
    while (not !inside) && !j < ns do
      let b = shelves.(!j).World.surface in
      if x >= b.Box2.min_x && x <= b.Box2.max_x && y >= b.Box2.min_y && y <= b.Box2.max_y
      then inside := true
      else incr j
    done;
    if !inside then begin
      Float.Array.unsafe_set xs !i x;
      Float.Array.unsafe_set ys !i y
    end
    else begin
      (* [World.clamp_to_shelves]: nearest-shelf clamp, first strict
         improvement wins. *)
      best := -1;
      best_d := infinity;
      for s = 0 to ns - 1 do
        let b = shelves.(s).World.surface in
        let qx = Float.max b.Box2.min_x (Float.min b.Box2.max_x x) in
        let qy = Float.max b.Box2.min_y (Float.min b.Box2.max_y y) in
        let dx = x -. qx and dy = y -. qy in
        let d = sqrt ((dx *. dx) +. (dy *. dy)) in
        if !best < 0 || d < !best_d then begin
          best := s;
          best_d := d
        end
      done;
      if !best < 0 then begin
        Float.Array.unsafe_set xs !i x;
        Float.Array.unsafe_set ys !i y
      end
      else begin
        let b = shelves.(!best).World.surface in
        Float.Array.unsafe_set xs !i (Float.max b.Box2.min_x (Float.min b.Box2.max_x x));
        Float.Array.unsafe_set ys !i (Float.max b.Box2.min_y (Float.min b.Box2.max_y y))
      end
    end;
    Float.Array.unsafe_set zs !i az;
    Array.unsafe_set ridx !i idx;
    Float.Array.unsafe_set lw !i 0.;
    i := !i + step
  done

let propose_heading model ~motion ~epoch ~current rng =
  match model with
  | Config.Known_heading f -> f epoch
  | Config.Track_heading { jump_prob } ->
      if Rfid_prob.Rng.bernoulli rng ~p:jump_prob then
        Rfid_prob.Rng.uniform rng ~lo:(-.Float.pi) ~hi:Float.pi
      else
        current
        +. motion.Motion_model.heading_drift
        +. Rfid_prob.Rng.gaussian rng ~sigma:motion.Motion_model.heading_sigma ()

let proposal_delta proposal ~motion ~last_reported ~reported =
  match proposal with
  | Config.From_velocity -> motion.Motion_model.velocity
  | Config.From_reported_displacement | Config.From_reported_location -> (
      match last_reported with
      | Some prev -> Vec3.sub reported prev
      | None -> motion.Motion_model.velocity)

let proposal_sigma proposal ~motion ~sensing =
  match proposal with
  | Config.From_velocity -> motion.Motion_model.sigma
  | Config.From_reported_displacement | Config.From_reported_location ->
      let m = motion.Motion_model.sigma in
      let s = sensing.Location_sensing.sigma in
      let axis m s = sqrt ((m *. m) +. (2. *. s *. s)) in
      Vec3.make (axis m.Vec3.x s.Vec3.x) (axis m.Vec3.y s.Vec3.y) (axis m.Vec3.z s.Vec3.z)

let jitter p ~sigma rng =
  Vec3.make
    (p.Vec3.x +. Rfid_prob.Rng.gaussian rng ~sigma:sigma.Vec3.x ())
    (p.Vec3.y +. Rfid_prob.Rng.gaussian rng ~sigma:sigma.Vec3.y ())
    (p.Vec3.z +. Rfid_prob.Rng.gaussian rng ~sigma:sigma.Vec3.z ())

(* Same dispatch into the scratch-buffer variants: identical draws and
   indices, no allocation. *)
let resample_into scheme rng w ~n ~out =
  match scheme with
  | Config.Systematic -> Rfid_prob.Resample.systematic_into rng w ~n ~out
  | Config.Multinomial -> Rfid_prob.Resample.multinomial_into rng w ~n ~out
  | Config.Residual -> Rfid_prob.Resample.residual_into rng w ~n ~out
