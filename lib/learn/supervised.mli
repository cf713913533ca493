(** Supervised sensor-model fitting: given direct access to a read-rate
    function (a lab bench where tag and reader positions are both
    known — the "manual calibration" setting the paper contrasts with,
    or a simulator's ground truth), fit the logistic sensor model by
    maximum likelihood over sampled interrogations.

    Two uses: (1) the "true sensor model" reference curve of
    Fig. 5(e) — the best logistic approximation of the simulator's
    actual cone; (2) a unit-testable oracle for EM (EM from noisy
    streams should approach the supervised fit). *)

val fit_sensor :
  ?samples:int ->
  read_prob:(d:float -> theta:float -> float) ->
  seed:int ->
  unit ->
  Rfid_model.Sensor_model.t
(** Draw [samples] (default 20000) geometries uniformly over
    distance ∈ [0, 6 ft] × angle ∈ [0, pi], label each by a Bernoulli
    draw from [read_prob], and fit with the default ridge penalty of
    {!fit_from_pairs}. @raise Invalid_argument if [samples <= 0]. *)

val fit_from_pairs :
  ?l2:float ->
  ?init:Rfid_model.Sensor_model.t ->
  ?w:float array ->
  geometries:(float * float) array ->
  outcomes:bool array ->
  unit ->
  Rfid_model.Sensor_model.t
(** Weighted logistic fit from explicit ((distance, angle), read?)
    pairs — the M-step primitive of {!Calibration}. [l2] is the ridge
    penalty (default 1e-4).
    @raise Invalid_argument on shape mismatch or empty data. *)

val mean_abs_error :
  Rfid_model.Sensor_model.t -> read_prob:(d:float -> theta:float -> float) -> float
(** Mean absolute difference of read probabilities over a 40 × 40 grid
    of distance ∈ [0, 6 ft] × angle ∈ [0, pi] — how well a fitted model
    matches a reference region (used to compare learned vs true models,
    Fig. 5(b)/(c)). *)
