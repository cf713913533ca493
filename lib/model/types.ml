type epoch = int
type tag = Object_tag of int | Shelf_tag of int

let tag_to_string = function
  | Object_tag i -> Printf.sprintf "obj:%d" i
  | Shelf_tag i -> Printf.sprintf "shelf:%d" i

type observation = {
  o_epoch : epoch;
  o_reported_loc : Rfid_geom.Vec3.t;
  o_read_tags : tag list;
}
