open Rfid_geom

type t = {
  world : Rfid_model.World.t;
  object_locs : Vec3.t array;
  y_extent : float;
}

(* Dimensions, ft. *)
let object_spacing = 0.5
let shelf_depth = 1.0
let aisle_width = 1.5

let layout ?(objects_per_shelf = 10) ~num_objects () =
  if num_objects <= 0 then invalid_arg "Warehouse.layout: num_objects must be positive";
  if objects_per_shelf <= 0 then
    invalid_arg "Warehouse.layout: objects_per_shelf must be positive";
  let num_shelves = (num_objects + objects_per_shelf - 1) / objects_per_shelf in
  let shelf_len = float_of_int objects_per_shelf *. object_spacing in
  let front_x = aisle_width in
  let back_x = aisle_width +. shelf_depth in
  let shelves =
    List.init num_shelves (fun i ->
        let y0 = float_of_int i *. shelf_len in
        {
          Rfid_model.World.shelf_id = i;
          surface = Box2.make ~min_x:front_x ~min_y:y0 ~max_x:back_x ~max_y:(y0 +. shelf_len);
          height = 0.;
          tag = Some (Vec3.make front_x (y0 +. (shelf_len /. 2.)) 0.);
        })
  in
  let world = Rfid_model.World.create shelves in
  let object_x = front_x +. (shelf_depth /. 2.) in
  let object_locs =
    Array.init num_objects (fun i ->
        Vec3.make object_x ((float_of_int i +. 0.5) *. object_spacing) 0.)
  in
  {
    world;
    object_locs;
    y_extent = float_of_int num_shelves *. shelf_len;
  }

let reader_start (_ : t) =
  Rfid_model.Reader_state.make ~loc:(Vec3.make 0. (-1.0) 0.) ~heading:0.
