open Rfid_geom
open Rfid_model

(* EM settings. The paper's premise is that EM needs no hand-set
   parameters, so these are fixed. *)

(* Object particles harvested per (tag, epoch) in the E-step. *)
let object_samples = 10

(* Reader particles harvested per (shelf tag, epoch). *)
let reader_samples = 10

(* Misses farther than this (ft) from the reader are discarded: distant
   misses are uninformative and would swamp the fit. *)
let neg_distance_cap = 8.

(* M-step ridge penalty. *)
let l2 = 1e-3

(* Physical prior: pseudo-misses at distances in [d, 2d] ft keep the
   distance decay identified even when the training geometry never
   pairs small angles with large distances. *)
let prior_miss_distance = 12.

(* Total weight of the pseudo-misses. *)
let prior_weight = 5.

(* Lower bound (ft) on the location-sensing sigma inside the E-step
   filter, so shelf-tag evidence can move the reader posterior off the
   reported track and expose systematic bias. *)
let e_step_sigma_floor = 0.75

(* Lower bound (ft) on the per-axis motion sigma of the E-step
   proposal, so reader particles can explore away from the reported
   track. *)
let e_step_motion_floor = 0.05

(* Over-relaxation factor on the location-sensing bias update: the
   filtered posterior recovers only a fraction of a systematic offset
   per EM round, so the innovation is amplified (1.0 = plain EM). *)
let bias_gain = 2.0

(* Seed of the E-step's particle and pseudo-miss draws. *)
let seed = 7

type evidence = {
  geometries : (float * float) array;
  outcomes : bool array;
  weights : float array;
  reader_track : (Vec3.t * Vec3.t) array;
}

(* Anchor-free sensing-noise estimate straight from the reported
   track: var(reported_t - reported_{t-1}) = sigma_m^2 + 2 sigma_s^2
   per axis (the motion term is not separable without an anchor and is
   negligible in practice: with sigma_m << sigma_s the overestimate is
   sqrt(1 + (sigma_m/sigma_s)^2 / 2)-fold). Unlike residuals against
   the posterior mean, which shrink to zero whenever the posterior hugs
   the reported track, it stays honest with zero shelf tags. Available
   before any filtering, so even the first E-step runs with a realistic
   sigma, and EM never revises it. *)
let sensing_sigma_of_reports observations =
  let reports =
    Array.of_list
      (List.map (fun (o : Types.observation) -> o.Types.o_reported_loc) observations)
  in
  let n = Array.length reports in
  let disp = Array.init (Int.max 0 (n - 1)) (fun i -> Vec3.sub reports.(i + 1) reports.(i)) in
  let axis f =
    let v = Rfid_prob.Stats.variance (Array.map f disp) in
    sqrt (Float.max 25e-6 (v /. 2.))
  in
  Vec3.make
    (axis (fun (v : Vec3.t) -> v.Vec3.x))
    (axis (fun (v : Vec3.t) -> v.Vec3.y))
    (axis (fun (v : Vec3.t) -> v.Vec3.z))

let e_step ~world ~params ~filter_config ~observations ~init_reader =
  let rng = Rfid_prob.Rng.create ~seed in
  (* Over-dispersed location sensing for the E-step: with the sensing
     sigma still at its (possibly tiny) initial value, the reader
     posterior would glue itself to the reported track and the shelf-tag
     evidence could never reveal a systematic bias. The floor keeps the
     posterior receptive; the M-step then estimates the real bias and
     sigma from the residuals. *)
  let e_params =
    let s = params.Params.sensing in
    let floor = e_step_sigma_floor in
    let sigma = s.Location_sensing.sigma in
    let sigma =
      Vec3.make
        (Float.max floor sigma.Vec3.x)
        (Float.max floor sigma.Vec3.y)
        (Float.max floor sigma.Vec3.z)
    in
    let m = params.Params.motion in
    let mfloor = e_step_motion_floor in
    let msigma = m.Motion_model.sigma in
    let msigma =
      Vec3.make
        (Float.max mfloor msigma.Vec3.x)
        (Float.max mfloor msigma.Vec3.y)
        (Float.max mfloor msigma.Vec3.z)
    in
    {
      params with
      Params.sensing = Location_sensing.create ~bias:s.Location_sensing.bias ~sigma ();
      motion =
        Motion_model.create ~velocity:m.Motion_model.velocity ~sigma:msigma
          ~heading_drift:m.Motion_model.heading_drift
          ~heading_sigma:m.Motion_model.heading_sigma ();
    }
  in
  (* The proposal keeps the honest (uninflated) noise scale. *)
  let proposal_noise =
    Rfid_core.Common.proposal_sigma filter_config.Rfid_core.Config.proposal
      ~motion:params.Params.motion ~sensing:params.Params.sensing
  in
  let filter_config =
    { filter_config with Rfid_core.Config.proposal_noise_override = Some proposal_noise }
  in
  let filter =
    Rfid_core.Factored_filter.create ~world ~params:e_params ~config:filter_config
      ~init_reader ~rng:(Rfid_prob.Rng.split rng)
  in
  let geoms = ref [] and outs = ref [] and ws = ref [] and track = ref [] in
  let harvest geom out w =
    geoms := geom :: !geoms;
    outs := out :: !outs;
    ws := w :: !ws
  in
  let shelf_tags = World.shelf_tags world in
  List.iter
    (fun (obs : Types.observation) ->
      Rfid_core.Factored_filter.step filter obs;
      let reported = obs.Types.o_reported_loc in
      let read_objs, read_shelves =
        List.fold_left
          (fun (objs, shelves) tag ->
            match tag with
            | Types.Object_tag i -> (i :: objs, shelves)
            | Types.Shelf_tag i -> (objs, i :: shelves))
          ([], []) obs.Types.o_read_tags
      in
      (* Reader posterior as arrays for categorical sampling. *)
      let states = ref [] and rw = ref [] in
      Rfid_core.Factored_filter.iter_reader_particles filter (fun s w ->
          states := s :: !states;
          rw := w :: !rw);
      let states = Array.of_list !states and rw = Array.of_list !rw in
      if Array.length states > 0 then begin
        (* Posterior reader mean for the motion/sensing M-step. *)
        let mean = ref Vec3.zero in
        Array.iteri
          (fun i (s : Reader_state.t) ->
            mean := Vec3.add !mean (Vec3.scale rw.(i) s.Reader_state.loc))
          states;
        track := (!mean, reported) :: !track;
        (* Shelf-tag evidence: known tag location, uncertain reader. *)
        List.iter
          (fun (tag, tag_loc) ->
            match tag with
            | Types.Object_tag _ -> ()
            | Types.Shelf_tag id ->
                let read = List.mem id read_shelves in
                if read || Vec3.dist reported tag_loc <= neg_distance_cap then begin
                  let w = 1. /. float_of_int reader_samples in
                  for _ = 1 to reader_samples do
                    let s = states.(Rfid_prob.Rng.categorical rng rw) in
                    let g =
                      Sensor_model.geometry ~reader_loc:s.Reader_state.loc
                        ~reader_heading:s.Reader_state.heading ~tag_loc
                    in
                    harvest g read w
                  done
                end)
          shelf_tags;
        (* Object-tag evidence: both tag and reader uncertain; pairs come
           from the factored particles' pointers. *)
        List.iter
          (fun obj ->
            let locs = ref [] and ow = ref [] and paired = ref [] in
            Rfid_core.Factored_filter.iter_object_particles filter obj
              (fun loc w reader ->
                locs := loc :: !locs;
                ow := w :: !ow;
                paired := reader :: !paired);
            let locs = Array.of_list !locs
            and ow = Array.of_list !ow
            and paired = Array.of_list !paired in
            if Array.length locs > 0 then begin
              let read = List.mem obj read_objs in
              (* Mean location decides whether a miss is informative. *)
              let mean = ref Vec3.zero in
              Array.iteri (fun i l -> mean := Vec3.add !mean (Vec3.scale ow.(i) l)) locs;
              if read || Vec3.dist reported !mean <= neg_distance_cap then begin
                let w = 1. /. float_of_int object_samples in
                for _ = 1 to object_samples do
                  let k = Rfid_prob.Rng.categorical rng ow in
                  let s = paired.(k) in
                  let g =
                    Sensor_model.geometry ~reader_loc:s.Reader_state.loc
                      ~reader_heading:s.Reader_state.heading ~tag_loc:locs.(k)
                  in
                  harvest g read w
                done
              end
            end)
          (Rfid_core.Factored_filter.known_objects filter)
      end)
    observations;
  (* Physical prior: no RFID reader reads a tag tens of feet away. The
     training geometry often never pairs a small angle with a large
     distance (the reader runs parallel to the shelf at a fixed
     clearance), leaving the distance decay unidentifiable; a few
     pseudo-misses at long range anchor it. *)
  let n = 60 in
  (* The prior must stay relevant as the harvested evidence grows,
     otherwise a long trace of mis-attributed long-distance "reads"
     (wide particle clouds early in EM) simply outvotes it and the
     sensor collapses to "reads everywhere". *)
  let total = List.fold_left ( +. ) 0. !ws in
  let w = Float.max prior_weight (0.02 *. total) /. float_of_int n in
  let dmin = prior_miss_distance in
  for _ = 1 to n do
    let d = Rfid_prob.Rng.uniform rng ~lo:dmin ~hi:(2. *. dmin) in
    let theta = Rfid_prob.Rng.uniform rng ~lo:0. ~hi:Float.pi in
    harvest (d, theta) false w
  done;
  {
    geometries = Array.of_list (List.rev !geoms);
    outcomes = Array.of_list (List.rev !outs);
    weights = Array.of_list (List.rev !ws);
    reader_track = Array.of_list (List.rev !track);
  }

let fit_gaussian_vec3 diffs ~floor =
  let n = Array.length diffs in
  let axis f =
    let vals = Array.map f diffs in
    let mu = Rfid_prob.Stats.mean vals in
    let sigma = sqrt (Rfid_prob.Stats.variance vals) in
    (mu, Float.max floor sigma)
  in
  if n = 0 then (Vec3.zero, Vec3.make floor floor floor)
  else begin
    let mx, sx = axis (fun (v : Vec3.t) -> v.Vec3.x) in
    let my, sy = axis (fun (v : Vec3.t) -> v.Vec3.y) in
    let mz, sz = axis (fun (v : Vec3.t) -> v.Vec3.z) in
    (Vec3.make mx my mz, Vec3.make sx sy sz)
  end

let m_step ~params ~(ev : evidence) =
  let sensor =
    if Array.length ev.geometries = 0 then params.Params.sensor
    else begin
      let fitted =
        Supervised.fit_from_pairs ~l2 ~init:params.Params.sensor ~w:ev.weights
          ~geometries:ev.geometries ~outcomes:ev.outcomes ()
      in
      (* Degeneracy guard: a sensor claiming substantial read rates at
         absurd range is an EM spiral (wide particle clouds attribute
         reads to far geometries, which widens the clouds further).
         Refit with a much heavier physical prior — rejecting the update
         outright can deadlock EM when even the starting point violates
         the check (e.g. a blind uniform init). *)
      let far = prior_miss_distance in
      if Sensor_model.read_prob_at fitted ~d:far ~theta:0. <= 0.3 then fitted
      else begin
        let rng = Rfid_prob.Rng.create ~seed:(seed + 1) in
        let total = Array.fold_left ( +. ) 0. ev.weights in
        let extra = 120 in
        let w_extra = 0.2 *. total /. float_of_int extra in
        let prior_geoms =
          Array.init extra (fun _ ->
              ( Rfid_prob.Rng.uniform rng ~lo:far ~hi:(2. *. far),
                Rfid_prob.Rng.uniform rng ~lo:0. ~hi:Float.pi ))
        in
        let geometries = Array.append ev.geometries prior_geoms in
        let outcomes = Array.append ev.outcomes (Array.make extra false) in
        let w = Array.append ev.weights (Array.make extra w_extra) in
        let salvaged =
          Supervised.fit_from_pairs ~l2 ~init:params.Params.sensor ~w ~geometries
            ~outcomes ()
        in
        if Sensor_model.read_prob_at salvaged ~d:far ~theta:0. <= 0.3 then salvaged
        else params.Params.sensor
      end
    end
  in
  let track = ev.reader_track in
  let n = Array.length track in
  let displacement =
    Array.init (Int.max 0 (n - 1)) (fun i ->
        Vec3.sub (fst track.(i + 1)) (fst track.(i)))
  in
  let velocity, motion_sigma = fit_gaussian_vec3 displacement ~floor:0.005 in
  let residuals = Array.map (fun (mean, reported) -> Vec3.sub reported mean) track in
  let raw_bias, _residual_sigma = fit_gaussian_vec3 residuals ~floor:0.005 in
  (* Over-relaxed bias update: the filtered posterior only recovers a
     fraction of a systematic reported-location offset per EM round
     (the sensing term keeps pulling it back toward the reported
     track), so the raw residual mean under-estimates the true bias.
     Amplifying the innovation accelerates the geometric convergence
     without touching the variance estimates. *)
  let old_bias = params.Params.sensing.Location_sensing.bias in
  let bias =
    (* Clamp the (amplified) innovation so one noisy EM round cannot
       fling the bias estimate; convergence just takes another
       round. *)
    let innovation = Vec3.scale bias_gain (Vec3.sub raw_bias old_bias) in
    let n = Vec3.norm innovation in
    let innovation = if n > 0.3 then Vec3.scale (0.3 /. n) innovation else innovation in
    Vec3.add old_bias innovation
  in
  let motion =
    Motion_model.create ~velocity ~sigma:motion_sigma
      ~heading_drift:params.Params.motion.Motion_model.heading_drift
      ~heading_sigma:params.Params.motion.Motion_model.heading_sigma ()
  in
  (* The sensing sigma stays [calibrate]'s estimate from the reported
     track ({!sensing_sigma_of_reports}). *)
  let sensing =
    Location_sensing.create ~bias ~sigma:params.Params.sensing.Location_sensing.sigma ()
  in
  { params with Params.sensor; motion; sensing }

let calibrate ?heading_model ~world ~init ~em_iters ~init_reader observations =
  if observations = [] then invalid_arg "Calibration.calibrate: empty stream";
  let filter_config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized ?heading_model ()
  in
  (* Seed the sensing sigma from the reported track before any EM round
     so the very first E-step proposal and weighting are realistic. *)
  let init =
    {
      init with
      Params.sensing =
        Location_sensing.create ~bias:init.Params.sensing.Location_sensing.bias
          ~sigma:(sensing_sigma_of_reports observations) ();
    }
  in
  let rec loop params iter =
    if iter = 0 then params
    else begin
      let ev = e_step ~world ~params ~filter_config ~observations ~init_reader in
      loop (m_step ~params ~ev) (iter - 1)
    end
  in
  loop init em_iters
