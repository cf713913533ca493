(** The one pipeline constructor: world, fitted sensor parameters,
    engine, ingest guard and durable session for a given
    [(objects, seed, config)].

    [rfid_clean infer], [rfid_clean replay] and [rfid_clean serve] all
    build their pipeline here, as do the serve-smoke gate's in-process
    reference and the PROTOCOL.md conformance runner. Engine output is
    deterministic given the fixture, so one recipe is what makes
    "[replay] of a file prints the events [serve] computes from the
    same lines" a meaningful check rather than a fixture-drift lottery.

    The recipe: warehouse layout from {!Rfid_sim.Warehouse.layout} (an
    observation stream carries no world description), the cone sensor's
    {!Rfid_learn.Supervised.fit_sensor} fit at seed 99, and one rule for
    the initial reader: {!Rfid_sim.Warehouse.reader_start}. The default
    cone's fit ships as a constant (the learn suite checks it against a
    runtime fit bit for bit), so only another read rate fits at
    construction. Every guard checks the world's bounds and the object
    universe. *)

type t
(** World, fitted parameters, engine configuration, initial reader,
    object count and engine seed. *)

val of_config :
  ?read_rate:float -> objects:int -> seed:int -> Rfid_core.Config.t -> t
(** The fixture around an already-validated engine configuration (the
    CLI's engine flags build one). [read_rate] is the cone's major-range
    read rate the sensor is fitted to (default 1.0, whose fit is the
    shipped constant; any other value, as [infer --read-rate] sets,
    runs the fit here). *)

val make :
  objects:int ->
  seed:int ->
  ?variant:Rfid_core.Config.variant ->
  ?particles:int ->
  unit ->
  t
(** {!of_config} over {!Rfid_core.Config.create}'s defaults, which
    match the CLI's: [variant = Factorized_indexed], [particles = 200],
    no adaptation, [resample_ess = 1.0]. *)

val world : t -> Rfid_model.World.t
val num_objects : t -> int

val sensor : t -> Rfid_model.Sensor_model.t
(** The sensor model in the fixture's parameters: the shipped constant
    or a fit made at construction. *)

val fresh_engine : t -> Rfid_core.Engine.t

val fresh_guard : ?drop_out_of_order:bool -> t -> Rfid_robust.Ingest.t
(** Ingest guard over the fixture's world bounds and object universe.
    An out-of-order epoch is dropped by default (a network stream
    reorders more casually than a file); [~drop_out_of_order:false]
    halts on it instead. *)

val start_session :
  ?resume:string ->
  t ->
  guard:Rfid_robust.Ingest.t ->
  Rfid_robust.Session.config ->
  Rfid_robust.Session.t
(** {!Rfid_robust.Session.start} over a fresh or restored engine of the
    fixture; [guard] is the one the caller keeps feeding. *)
