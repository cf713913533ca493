open Rfid_geom

type cell = int * int

let cell_of (p : Vec3.t) =
  (int_of_float (Float.floor p.Vec3.x), int_of_float (Float.floor p.Vec3.y))

type violation = {
  v_epoch : Rfid_model.Types.epoch;
  v_cell : cell;
  v_weight : float;
  v_objects : int list;
}

(* The range window (epochs) and the limit (pounds per square foot). *)
let window = 5
let limit = 200.

type t = {
  weight_of : int -> float;
  recent : (Rfid_model.Types.epoch * int) Queue.t;
      (* objects reported within the range window, oldest first *)
  latest_loc : (int, Vec3.t) Hashtbl.t;
  mutable epoch : Rfid_model.Types.epoch;  (* epoch of the last event *)
  reported : (cell, unit) Hashtbl.t;  (* cells already reported at [epoch] *)
}

let create ~weight_of =
  {
    weight_of;
    recent = Queue.create ();
    latest_loc = Hashtbl.create 64;
    epoch = min_int;
    reported = Hashtbl.create 8;
  }

let push t (ev : Rfid_core.Event.t) =
  let e = ev.Rfid_core.Event.ev_epoch in
  if e < t.epoch then invalid_arg "Fire_code: epoch regression";
  if e > t.epoch then begin
    t.epoch <- e;
    Hashtbl.reset t.reported
  end;
  Hashtbl.replace t.latest_loc ev.Rfid_core.Event.ev_obj ev.Rfid_core.Event.ev_loc;
  Queue.push (e, ev.Rfid_core.Event.ev_obj) t.recent;
  while fst (Queue.peek t.recent) <= e - window do
    ignore (Queue.pop t.recent)
  done;
  (* Group the window's objects by square-foot cell of their latest
     location; each object counts once. *)
  let seen = Hashtbl.create 16 in
  let cells : (cell, float * int list) Hashtbl.t = Hashtbl.create 16 in
  Queue.iter
    (fun (_, obj) ->
      if not (Hashtbl.mem seen obj) then begin
        Hashtbl.replace seen obj ();
        let c = cell_of (Hashtbl.find t.latest_loc obj) in
        let w, objs = Option.value (Hashtbl.find_opt cells c) ~default:(0., []) in
        Hashtbl.replace cells c (w +. t.weight_of obj, obj :: objs)
      end)
    t.recent;
  let vs =
    Hashtbl.fold
      (fun c (w, objs) acc ->
        if w > limit && not (Hashtbl.mem t.reported c) then
          { v_epoch = e; v_cell = c; v_weight = w; v_objects = List.sort Int.compare objs }
          :: acc
        else acc)
      cells []
    |> List.sort (fun a b -> compare a.v_cell b.v_cell)
  in
  List.iter (fun v -> Hashtbl.replace t.reported v.v_cell ()) vs;
  vs

let run t events = List.concat_map (push t) events

let pp_violation ppf v =
  Format.fprintf ppf "t=%d cell=(%d,%d) weight=%.1f lbs objects=[%s]" v.v_epoch
    (fst v.v_cell) (snd v.v_cell) v.v_weight
    (String.concat ";" (List.map string_of_int v.v_objects))
