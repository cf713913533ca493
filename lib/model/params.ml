type t = {
  sensor : Sensor_model.t;
  motion : Motion_model.t;
  sensing : Location_sensing.t;
  objects : Object_model.t;
}

let create ?(sensor = Sensor_model.default) ?(motion = Motion_model.default)
    ?(sensing = Location_sensing.default) () =
  { sensor; motion; sensing; objects = Object_model.default }

let default = create ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>sensor: %a@ motion: v=%a sigma=%a@ sensing: bias=%a sigma=%a@ objects: \
     alpha=%.2e@]"
    Sensor_model.pp t.sensor Rfid_geom.Vec3.pp t.motion.Motion_model.velocity
    Rfid_geom.Vec3.pp t.motion.Motion_model.sigma Rfid_geom.Vec3.pp
    t.sensing.Location_sensing.bias Rfid_geom.Vec3.pp t.sensing.Location_sensing.sigma
    t.objects.Object_model.move_prob
