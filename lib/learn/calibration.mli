(** Self-calibration by Monte-Carlo EM (§III-C).

    Given a small training trace from the deployment environment — the
    observed reader locations plus readings of a handful of tags, some
    of which are shelf tags with known locations — estimate all model
    parameters: the sensor coefficients \{a_c\} ∪ \{b_c\}, the average
    reader velocity ∆ and its variance Σ_m, and the location-sensing
    bias µ_s and variance Σ_s.

    The E-step runs the factorized particle filter under the current
    parameters and harvests weighted sensing outcomes: for each epoch
    and shelf tag, (distance, angle, read?) under each reader-particle
    hypothesis; for each epoch and object tag with live particles, the
    same under paired (object-particle, reader-particle) hypotheses. The
    M-step refits the sensor by weighted logistic regression and
    re-estimates the Gaussians in closed form from the posterior reader
    track. A handful of iterations suffices; with zero known tags EM can
    settle in a local maximum — the paper observes exactly this
    (Fig. 5(e) at x = 0). *)

type config = {
  em_iters : int;  (** EM rounds (default 4) *)
  object_samples : int;
      (** object particles harvested per (tag, epoch) in the E-step (default 10) *)
  reader_samples : int;
      (** reader particles harvested per (shelf tag, epoch) (default 10) *)
  neg_distance_cap : float;
      (** discard miss-outcomes farther than this from the reader
          (default 8 ft) — distant misses are uninformative and would
          swamp the fit *)
  filter_config : Rfid_core.Config.t;  (** E-step filter settings *)
  l2 : float;  (** M-step ridge penalty (default 1e-3) *)
  fit_motion : bool;  (** also refit motion and location sensing (default true) *)
  prior_miss_distance : float option;
      (** physical prior: inject pseudo-misses at distances in
          [d, 2d] so the distance decay stays identified even when the
          training geometry never pairs small angles with large
          distances (default [Some 12.] ft) *)
  prior_weight : float;  (** total weight of the pseudo-misses (default 5) *)
  e_step_sigma_floor : float;
      (** lower bound (ft) on the location-sensing sigma used inside the
          E-step filter, so shelf-tag evidence can move the reader
          posterior off the reported track and expose systematic bias
          (default 0.75) *)
  e_step_motion_floor : float;
      (** lower bound (ft) on the per-axis motion sigma of the E-step
          proposal, so reader particles can actually explore away from
          the reported track (default 0.05) *)
  bias_gain : float;
      (** over-relaxation factor on the location-sensing bias update —
          the filtered posterior recovers only a fraction of a
          systematic offset per EM round, so the innovation is amplified
          (default 2.0; 1.0 = plain EM) *)
  seed : int;
}

val default_config : ?heading_model:Rfid_core.Config.heading_model -> unit -> config

val calibrate :
  world:Rfid_model.World.t ->
  init:Rfid_model.Params.t ->
  config:config ->
  observations:Rfid_model.Types.observation list ->
  init_reader:Rfid_model.Reader_state.t ->
  Rfid_model.Params.t
(** Run EM on a training stream. The returned parameters keep [init]'s
    object model (α is not identifiable from a short static-object
    trace). @raise Invalid_argument on an empty stream. *)
