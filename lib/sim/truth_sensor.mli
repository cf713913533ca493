(** Ground-truth sensing regions used by the simulator to decide whether
    a tag responds. These are deliberately {e not} the logistic family
    the inference engine assumes — the point of Fig. 5(a)–(d) is that EM
    fits the logistic model to whatever region the hardware actually
    has. *)

type t = {
  read_prob : d:float -> theta:float -> float;
      (** probability a tag at distance [d] (ft) and unsigned angle
          [theta] (radians) responds in one interrogation round *)
  range : float;  (** distance beyond which the probability is 0 *)
  half_angle : float;  (** angle beyond which the probability is 0 *)
}

val cone : ?rr_major:float -> unit -> t
(** The §V-A warehouse sensor: a cone 3 ft long with a 30° open angle
    for the major detection range at uniform read rate [rr_major]
    (default 1.0), plus an additional 15° for the minor detection range
    whose rate decays linearly from [rr_major] to 0.
    @raise Invalid_argument unless [0 <= rr_major <= 1]. *)

val spherical : ?rr_center:float -> ?range:float -> ?angle_falloff:float -> unit -> t
(** The §V-C lab antenna: a spherical region with a wide minor range
    whose read rate is inversely related to the tag's angle from the
    antenna centre — [rr_center * max 0 (1 - theta / angle_falloff)],
    flat in distance up to [range] then a linear fade over the last
    20%. Defaults: [rr_center] 0.8, [range] 4 ft, [angle_falloff]
    2.0 rad. *)

val read_prob_at :
  t ->
  reader_loc:Rfid_geom.Vec3.t ->
  reader_heading:float ->
  tag_loc:Rfid_geom.Vec3.t ->
  float
(** Evaluate the region at the geometry between a reader pose and a tag
    (same distance/angle convention as the inference-side
    {!Rfid_model.Sensor_model}). *)
