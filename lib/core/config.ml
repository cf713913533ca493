type variant = Factorized | Factorized_indexed | Factorized_compressed
type resample_scheme = Systematic | Multinomial | Residual
type proposal = From_velocity | From_reported_displacement | From_reported_location

type heading_model =
  | Known_heading of (Rfid_model.Types.epoch -> float)
  | Track_heading of { jump_prob : float }

type t = {
  variant : variant;
  num_reader_particles : int;
  num_object_particles : int;
  min_object_particles : int;
  resample_ratio : float;
  resample_ess_ratio : float;
  proposal : proposal;
  heading_model : heading_model;
  report_delay : int;
  compress_after : int;
  decompress_particles : int;
  resample_scheme : resample_scheme;
  proposal_noise_override : Rfid_geom.Vec3.t option;
  degraded_widen_after : int;
}

let init_overestimate = 1.25
let detection_threshold = 0.02
let max_sensing_range = 12.
let shelf_miss_weight = 0.25
let degraded_noise_scale = 3.0
let degraded_widen_sigma = 0.25
let reinit_near = 1.0
let reinit_far = 6.0
let out_of_scope_after = 15

let create ?(variant = Factorized_indexed) ?(num_reader_particles = 100)
    ?(num_object_particles = 200) ?min_object_particles ?(resample_ratio = 0.5)
    ?(resample_ess_ratio = 1.0)
    ?(proposal = From_reported_displacement)
    ?(heading_model = Known_heading (fun _ -> 0.))
    ?(report_delay = 60) ?(compress_after = 20) ?(decompress_particles = 10)
    ?(resample_scheme = Systematic)
    ?(proposal_noise_override = None) ?(degraded_widen_after = 10) () =
  if num_reader_particles <= 0 || num_object_particles <= 0 then
    invalid_arg "Config.create: particle counts must be positive";
  if not (resample_ratio > 0. && resample_ratio <= 1.) then
    invalid_arg "Config.create: resample_ratio must be in (0, 1]";
  if not (resample_ess_ratio > 0. && resample_ess_ratio <= 1.) then
    invalid_arg "Config.create: resample_ess_ratio must be in (0, 1]";
  let min_object_particles =
    Option.value min_object_particles ~default:num_object_particles
  in
  if min_object_particles <= 0 || min_object_particles > num_object_particles then
    invalid_arg
      "Config.create: min_object_particles must be in [1, num_object_particles]";
  if report_delay < 0 || compress_after <= 0 then
    invalid_arg "Config.create: need report_delay >= 0 and compress_after > 0";
  if decompress_particles <= 0 then
    invalid_arg "Config.create: decompress_particles must be positive";
  if degraded_widen_after <= 0 then
    invalid_arg "Config.create: degraded_widen_after must be positive";
  {
    variant;
    num_reader_particles;
    num_object_particles;
    min_object_particles;
    resample_ratio;
    resample_ess_ratio;
    proposal;
    heading_model;
    report_delay;
    compress_after;
    decompress_particles;
    resample_scheme;
    proposal_noise_override;
    degraded_widen_after;
  }

