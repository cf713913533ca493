type t = { x : float; y : float; z : float }

let make x y z = { x; y; z }
let zero = { x = 0.; y = 0.; z = 0. }
let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale c a = { x = c *. a.x; y = c *. a.y; z = c *. a.z }
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
let norm_sq a = dot a a
let norm a = sqrt (norm_sq a)
let dist_sq a b = norm_sq (sub a b)
let dist a b = sqrt (dist_sq a b)

let dist_xy a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let of_array = function
  | [| x; y; z |] -> { x; y; z }
  | _ -> invalid_arg "Vec3.of_array: expected length 3"

let xy_angle a = atan2 a.y a.x

let pp ppf { x; y; z } = Format.fprintf ppf "(%.3f, %.3f, %.3f)" x y z
