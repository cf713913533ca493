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

val calibrate :
  ?heading_model:Rfid_core.Config.heading_model ->
  world:Rfid_model.World.t ->
  init:Rfid_model.Params.t ->
  em_iters:int ->
  init_reader:Rfid_model.Reader_state.t ->
  Rfid_model.Types.observation list ->
  Rfid_model.Params.t
(** Run [em_iters] EM rounds on a training stream. The E-step filter is
    {!Rfid_core.Config.Factorized} with the default particle budgets
    and [heading_model] (default: known heading 0). Everything else EM
    uses is fixed in the implementation: 10 harvested particles per
    (tag, epoch), misses beyond 8 ft dropped, M-step ridge 1e-3,
    pseudo-misses of total weight 5 at 12-24 ft as a physical prior on
    the distance decay, E-step floors of 0.75 ft on the sensing sigma
    and 0.05 ft on the motion sigma, a bias-update gain of 2, and seed
    7. The returned parameters keep [init]'s object model (α is not
    identifiable from a short static-object trace).
    @raise Invalid_argument on an empty stream. *)
