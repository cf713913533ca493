type epoch = int
type tag = Object_tag of int | Shelf_tag of int

let tag_compare a b =
  match (a, b) with
  | Object_tag i, Object_tag j | Shelf_tag i, Shelf_tag j -> Int.compare i j
  | Object_tag _, Shelf_tag _ -> -1
  | Shelf_tag _, Object_tag _ -> 1

let tag_to_string = function
  | Object_tag i -> Printf.sprintf "obj:%d" i
  | Shelf_tag i -> Printf.sprintf "shelf:%d" i

type observation = {
  o_epoch : epoch;
  o_reported_loc : Rfid_geom.Vec3.t;
  o_read_tags : tag list;
}

module Tag_ord = struct
  type t = tag

  let compare = tag_compare
end

module Tag_map = Map.Make (Tag_ord)
module Tag_set = Set.Make (Tag_ord)
