open Rfid_geom

type shelf = { shelf_id : int; surface : Box2.t; height : float; tag : Vec3.t option }
type t = { shelves : shelf array; areas : float array; total_area : float; bbox : Box2.t }

let create shelf_list =
  if shelf_list = [] then invalid_arg "World.create: no shelves";
  if List.exists (fun s -> s.shelf_id < 0) shelf_list then
    invalid_arg "World.create: negative shelf id";
  let ids = List.map (fun s -> s.shelf_id) shelf_list in
  let sorted = List.sort_uniq Int.compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "World.create: duplicate shelf ids";
  let shelves = Array.of_list shelf_list in
  let areas = Array.map (fun s -> Box2.area s.surface) shelves in
  let total_area = Array.fold_left ( +. ) 0. areas in
  let bbox =
    Array.fold_left (fun acc s -> Box2.union acc s.surface) shelves.(0).surface shelves
  in
  { shelves; areas; total_area; bbox }

let shelves t = t.shelves
let shelf_tag_location t id =
  match Array.find_opt (fun s -> s.shelf_id = id) t.shelves with
  | Some { tag = Some loc; _ } -> loc
  | Some { tag = None; _ } | None -> raise Not_found

let shelf_tags t =
  Array.to_list t.shelves
  |> List.filter_map (fun s ->
         match s.tag with
         | Some loc -> Some (Types.Shelf_tag s.shelf_id, loc)
         | None -> None)

let with_shelf_tags t ~keep =
  let keep = List.sort_uniq Int.compare keep in
  let shelves =
    Array.to_list t.shelves
    |> List.map (fun s ->
           if List.mem s.shelf_id keep then s else { s with tag = None })
  in
  create shelves

let sample_on_shelves t rng =
  let idx =
    if Array.length t.shelves = 1 then 0
    else if t.total_area > 0. then Rfid_prob.Rng.categorical rng t.areas
    else Rfid_prob.Rng.int rng (Array.length t.shelves)
  in
  let s = t.shelves.(idx) in
  let b = s.surface in
  let x = Rfid_prob.Rng.uniform rng ~lo:b.Box2.min_x ~hi:b.Box2.max_x in
  let y = Rfid_prob.Rng.uniform rng ~lo:b.Box2.min_y ~hi:b.Box2.max_y in
  Vec3.make x y s.height

let contains t p = Array.exists (fun s -> Box2.contains_point s.surface p) t.shelves

let clamp_to_box (b : Box2.t) (p : Vec3.t) =
  Vec3.make
    (Float.max b.Box2.min_x (Float.min b.Box2.max_x p.Vec3.x))
    (Float.max b.Box2.min_y (Float.min b.Box2.max_y p.Vec3.y))
    p.Vec3.z

let clamp_to_shelves t p =
  if contains t p then p
  else begin
    (* Scalar scan: same per-shelf clamp and distance as materializing a
       candidate [Vec3.t] per shelf (first strict improvement wins, as
       before), but tracking only the best index — the former
       per-shelf allocation made this call O(num_shelves) words, which
       dominated the re-initialization path on large worlds. *)
    let best = ref (-1) and best_d = ref infinity in
    for i = 0 to Array.length t.shelves - 1 do
      let b = t.shelves.(i).surface in
      let qx = Float.max b.Box2.min_x (Float.min b.Box2.max_x p.Vec3.x) in
      let qy = Float.max b.Box2.min_y (Float.min b.Box2.max_y p.Vec3.y) in
      let dx = p.Vec3.x -. qx and dy = p.Vec3.y -. qy in
      let d = sqrt ((dx *. dx) +. (dy *. dy)) in
      if !best < 0 || d < !best_d then begin
        best := i;
        best_d := d
      end
    done;
    if !best < 0 then p else clamp_to_box t.shelves.(!best).surface p
  end

let bounding_box t = t.bbox