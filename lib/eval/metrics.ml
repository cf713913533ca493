open Rfid_geom

type error = { mean_x : float; mean_y : float; mean_xy : float; count : int }

let zero = { mean_x = 0.; mean_y = 0.; mean_xy = 0.; count = 0 }

let true_loc_at (trace : Rfid_model.Trace.t) ~epoch ~obj =
  let n = Rfid_model.Trace.epochs trace in
  if n = 0 || obj < 0 || obj >= trace.Rfid_model.Trace.num_objects then None
  else begin
    let e = Int.max 0 (Int.min (n - 1) epoch) in
    Some (Rfid_model.Trace.true_object_loc trace ~epoch:e ~obj)
  end

let inference_error events trace =
  let sx = ref 0. and sy = ref 0. and sxy = ref 0. and n = ref 0 in
  List.iter
    (fun (ev : Rfid_core.Event.t) ->
      match true_loc_at trace ~epoch:ev.Rfid_core.Event.ev_epoch ~obj:ev.ev_obj with
      | None -> ()
      | Some truth ->
          let loc = ev.Rfid_core.Event.ev_loc in
          sx := !sx +. Float.abs (loc.Vec3.x -. truth.Vec3.x);
          sy := !sy +. Float.abs (loc.Vec3.y -. truth.Vec3.y);
          sxy := !sxy +. Vec3.dist_xy loc truth;
          incr n)
    events;
  if !n = 0 then zero
  else begin
    let c = float_of_int !n in
    { mean_x = !sx /. c; mean_y = !sy /. c; mean_xy = !sxy /. c; count = !n }
  end

let per_object_error events trace =
  let last = Hashtbl.create 32 in
  List.iter
    (fun (ev : Rfid_core.Event.t) -> Hashtbl.replace last ev.Rfid_core.Event.ev_obj ev)
    events;
  Hashtbl.fold
    (fun obj (ev : Rfid_core.Event.t) acc ->
      match true_loc_at trace ~epoch:ev.Rfid_core.Event.ev_epoch ~obj with
      | None -> acc
      | Some truth -> (obj, Vec3.dist_xy ev.Rfid_core.Event.ev_loc truth) :: acc)
    last []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pp_error ppf e =
  Format.fprintf ppf "X=%.3f Y=%.3f XY=%.3f ft (n=%d)" e.mean_x e.mean_y e.mean_xy
    e.count
