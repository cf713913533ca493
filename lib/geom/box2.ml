type t = { min_x : float; min_y : float; max_x : float; max_y : float }

let make ~min_x ~min_y ~max_x ~max_y =
  if
    Float.is_nan min_x || Float.is_nan min_y || Float.is_nan max_x || Float.is_nan max_y
  then invalid_arg "Box2.make: NaN bound";
  if min_x > max_x || min_y > max_y then invalid_arg "Box2.make: min exceeds max";
  { min_x; min_y; max_x; max_y }

let of_center (c : Vec3.t) ~half_width ~half_height =
  make ~min_x:(c.x -. half_width) ~min_y:(c.y -. half_height)
    ~max_x:(c.x +. half_width) ~max_y:(c.y +. half_height)

let contains_point t (p : Vec3.t) =
  p.x >= t.min_x && p.x <= t.max_x && p.y >= t.min_y && p.y <= t.max_y

let contains_xy t ~x ~y = x >= t.min_x && x <= t.max_x && y >= t.min_y && y <= t.max_y

let intersects a b =
  a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y && b.min_y <= a.max_y

let union a b =
  {
    min_x = Float.min a.min_x b.min_x;
    min_y = Float.min a.min_y b.min_y;
    max_x = Float.max a.max_x b.max_x;
    max_y = Float.max a.max_y b.max_y;
  }

let area t = (t.max_x -. t.min_x) *. (t.max_y -. t.min_y)

let inflate t margin =
  make ~min_x:(t.min_x -. margin) ~min_y:(t.min_y -. margin) ~max_x:(t.max_x +. margin)
    ~max_y:(t.max_y +. margin)
