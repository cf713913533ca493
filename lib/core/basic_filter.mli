(** The basic (unfactorized) particle filter of §IV-A.

    Every particle is a joint hypothesis: one reader state plus a
    location for {e every} object. This is the textbook sequential
    importance resampling filter applied to the model of §III — correct,
    and the paper's scalability baseline: the particle count needed for
    a fixed accuracy grows quickly with the number of objects because a
    joint particle is only as good as its worst per-object sample
    (Fig. 3(a)), which is exactly what Fig. 5(i)/(j) demonstrate.

    The object universe must be declared up front ([num_objects]); the
    factorized filters discover objects from the stream instead. The
    joint particle count is [config.num_reader_particles]
    ([variant] and [num_object_particles] are unused here).

    The engine does not serve this filter: it has no dead reckoning, no
    checkpoint and no change feed. [Rfid_eval.Runner.run_joint] runs it
    under the engine's report policy for Fig. 5(i)/(j), and the tests
    use it as the reference the factorized filter must match in
    distribution (Eq. 5). *)

type t

val create :
  world:Rfid_model.World.t ->
  params:Rfid_model.Params.t ->
  config:Config.t ->
  init_reader:Rfid_model.Reader_state.t ->
  num_objects:int ->
  rng:Rfid_prob.Rng.t ->
  t
(** @raise Invalid_argument if [num_objects < 0]. *)

val step : t -> Rfid_model.Types.observation -> unit
(** Advance one epoch: propose from the motion and object models, weight
    by the location report, shelf-tag and object-tag evidence, resample
    when the effective sample size degenerates.
    @raise Invalid_argument if observations arrive out of epoch order. *)

val estimate : t -> int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option
(** Posterior mean and covariance of an object's location; [None] for an
    object id outside the declared universe or never read. *)

val newly_seen : t -> int list
(** Objects that (re-)entered the reader's scope during the last
    {!step}. *)

val epoch : t -> Rfid_model.Types.epoch
(** Epoch of the last processed observation; -1 initially. *)
