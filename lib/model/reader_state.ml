type t = { loc : Rfid_geom.Vec3.t; heading : float }

let make ~loc ~heading = { loc; heading }
