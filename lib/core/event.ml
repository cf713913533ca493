type t = {
  ev_epoch : Rfid_model.Types.epoch;
  ev_obj : int;
  ev_loc : Rfid_geom.Vec3.t;
  ev_cov : Rfid_prob.Linalg.mat option;
  ev_degraded : bool;
}

let make ~epoch ~obj ~loc ?cov ?(degraded = false) () =
  { ev_epoch = epoch; ev_obj = obj; ev_loc = loc; ev_cov = cov; ev_degraded = degraded }

let std_dev_xy t =
  match t.ev_cov with
  | None -> None
  | Some c -> Some (sqrt (Float.max 0. ((c.(0).(0) +. c.(1).(1)) /. 2.)))

let pp ppf t =
  Format.fprintf ppf "@[t=%d obj=%d loc=%a%t%t@]" t.ev_epoch t.ev_obj Rfid_geom.Vec3.pp
    t.ev_loc
    (fun ppf ->
      match std_dev_xy t with
      | Some s -> Format.fprintf ppf " (sd_xy=%.3f)" s
      | None -> ())
    (fun ppf -> if t.ev_degraded then Format.fprintf ppf " [degraded]")
