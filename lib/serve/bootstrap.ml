type t = {
  world : Rfid_model.World.t;
  params : Rfid_model.Params.t;
  config : Rfid_core.Config.t;
  init_reader : Rfid_model.Reader_state.t;
  num_objects : int;
  seed : int;
}

(* [Supervised.fit_sensor ~seed:99] on the default cone (major-range
   read rate 1.0), to the bit. The fit's inputs are fixed, so a boot
   takes its result instead of re-solving 20,000 samples; the learn
   suite checks the runtime fit still lands on these values. *)
let default_sensor =
  {
    Rfid_model.Sensor_model.a0 = 0x1.d42adabf8f4bdp+2;
    a1 = 0x0p+0;
    a2 = -0x1.52e0a5a4cc4p-1;
    b1 = 0x0p+0;
    b2 = -0x1.a35ff20224accp+5;
  }

let of_config ?(read_rate = 1.0) ~objects ~seed config =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:objects () in
  let fitted =
    if read_rate = 1.0 then default_sensor
    else
      let cone = Rfid_sim.Truth_sensor.cone ~rr_major:read_rate () in
      Rfid_learn.Supervised.fit_sensor ~read_prob:cone.Rfid_sim.Truth_sensor.read_prob
        ~seed:99 ()
  in
  {
    world = wh.Rfid_sim.Warehouse.world;
    params = Rfid_model.Params.create ~sensor:fitted ();
    config;
    init_reader = Rfid_sim.Warehouse.reader_start wh;
    num_objects = objects;
    seed;
  }

let world t = t.world
let num_objects t = t.num_objects
let sensor t = t.params.Rfid_model.Params.sensor

let make ~objects ~seed ?variant ?particles () =
  of_config ~objects ~seed
    (Rfid_core.Config.create ?variant ?num_object_particles:particles ())

let fresh_engine t =
  Rfid_core.Engine.create ~world:t.world ~params:t.params ~config:t.config
    ~init_reader:t.init_reader ~seed:t.seed ()

let fresh_guard ?(drop_out_of_order = true) t =
  Rfid_robust.Ingest.create ~drop_out_of_order
    ~bounds:(Rfid_model.World.bounding_box t.world)
    ~max_object_id:t.num_objects ()

let start_session ?resume t ~guard config =
  Rfid_robust.Session.start ?resume ~guard
    ~fresh:(fun () -> fresh_engine t)
    ~restore:(Rfid_core.Engine.restore ~world:t.world ~params:t.params ~config:t.config)
    config
