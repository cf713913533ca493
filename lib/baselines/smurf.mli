(** SMURF (Jeffery et al., VLDB J. 2007) — the state-of-the-art RFID
    cleaning baseline the paper compares against — augmented with
    location sampling exactly as §V-C describes.

    SMURF proper is an adaptive per-tag smoothing filter: it maintains a
    sliding window over each tag's readings, sizes the window from the
    tag's estimated read rate via a binomial completeness argument
    (window w* ≈ ln(1/delta) / p_avg epochs guarantees a read with
    probability 1 − delta while the tag is present), and shrinks the
    window when a statistically significant drop in reads signals that
    the tag left the range. Within its window a tag is declared
    {e present}.

    Because SMURF only answers "in range or not", the paper augments it
    for location events: while a tag is declared present, sample a
    location uniformly over the intersection of the read range (centred
    on the {e reported} reader location — SMURF has no mechanism to
    correct reader-location error) and the shelf; when the tag is
    declared gone, average the samples of that presence period into one
    location event. The read range is supplied externally (the paper
    hands SMURF the range from {e our} learned sensor model, since SMURF
    cannot learn one). *)

val run :
  world:Rfid_model.World.t ->
  read_range:float ->
  ?heading_of:(Rfid_model.Types.epoch -> float) ->
  seed:int ->
  Rfid_model.Types.observation list ->
  Rfid_core.Event.t list
(** Clean a stream: one event per (object, presence period), at the
    period's last epoch, located at the mean of the period's samples.
    Shelf-tag readings are ignored (SMURF has no use for them — one of
    the two deficits the comparison in the paper isolates).
    [read_range] is the sensing radius (ft) used for location sampling.
    With [heading_of] (the antenna orientation per epoch), samples are
    restricted to the half-plane the antenna faces (the paper's lab
    robot scans one row at a time). The window uses completeness
    confidence delta = 0.05, is capped at 25 epochs, and engages from
    the first read. @raise Invalid_argument if [read_range <= 0]. *)

(** {1 Shared with the uniform baseline} *)

val sample_in_range :
  Rfid_model.World.t ->
  Rfid_prob.Rng.t ->
  center:Rfid_geom.Vec3.t ->
  range:float ->
  ?facing:float ->
  unit ->
  Rfid_geom.Vec3.t
(** Uniform sample over (disc of [range] around [center]) ∩ shelf area,
    by rejection; the clamped centre when the intersection is empty.
    With [facing], only the half-plane in that direction is eligible. *)
