type step = {
  epoch : Types.epoch;
  true_reader : Reader_state.t;
  true_object_locs : Rfid_geom.Vec3.t array;
  observation : Types.observation;
}

type t = { world : World.t; num_objects : int; steps : step array }

let observations t = Array.to_list (Array.map (fun s -> s.observation) t.steps)

let true_object_loc t ~epoch ~obj =
  if epoch < 0 || epoch >= Array.length t.steps then
    invalid_arg "Trace.true_object_loc: epoch out of range";
  let locs = t.steps.(epoch).true_object_locs in
  if obj < 0 || obj >= Array.length locs then
    invalid_arg "Trace.true_object_loc: object id out of range";
  locs.(obj)

let final_object_locs t =
  let n = Array.length t.steps in
  if n = 0 then invalid_arg "Trace.final_object_locs: empty trace";
  Array.copy t.steps.(n - 1).true_object_locs

let epochs t = Array.length t.steps
