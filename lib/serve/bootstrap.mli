(** Shared serving fixture: one place that builds the world, the fitted
    sensor parameters, the engine configuration and the ingest guard
    for a given [(objects, seed, variant, budget)] tuple.

    Three parties must agree on this construction to the bit: the
    [rfid_clean serve] process, the offline replay the serve-smoke gate
    diffs it against, and the PROTOCOL.md conformance runner. Engine
    output is deterministic given the fixture, so centralizing the
    recipe here is what makes "bit-identical posteriors vs batch
    replay" a meaningful check rather than a fixture-drift lottery.

    The conventions mirror the [replay] subcommand: warehouse layout
    from {!Rfid_sim.Warehouse.layout}, cone sensor, parameters fitted
    with {!Rfid_learn.Supervised.fit_sensor} at seed 99, reader
    initialized at {!Rfid_sim.Warehouse.reader_start}. The guard drops
    out-of-order epochs (rather than halting) because a network stream
    reorders more casually than a file replay. *)

type t = {
  world : Rfid_model.World.t;
  params : Rfid_model.Params.t;
  config : Rfid_core.Config.t;
  init_reader : Rfid_model.Reader_state.t;
  num_objects : int;
  seed : int;
}

val of_config : objects:int -> seed:int -> Rfid_core.Config.t -> t
(** The fixture around an already-validated engine configuration (the
    CLI's engine flags build one). *)

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

val fresh_engine : t -> Rfid_core.Engine.t

val restore_engine : t -> Rfid_core.Engine.snapshot -> Rfid_core.Engine.t

val fresh_guard : t -> Rfid_robust.Ingest.t
(** Ingest guard over the fixture's world bounds and object universe,
    with [~drop_out_of_order:true]. *)
