open Rfid_geom
open Rfid_model

type segment = { velocity : Vec3.t; heading : float; seg_epochs : int }
type movement = { move_epoch : int; move_obj : int; move_to : Vec3.t }

type location_noise =
  | Gaussian_report of Location_sensing.t
  | Dead_reckoning

type config = {
  sensor : Truth_sensor.t;
  motion_sigma : Vec3.t;
  velocity_bias : Vec3.t;
  drift_cap : float option;
  location_noise : location_noise;
  read_every : int;
  movements : movement list;
}

let default_config ?sensor () =
  let sensor = match sensor with Some s -> s | None -> Truth_sensor.cone () in
  {
    sensor;
    motion_sigma = Vec3.make 0.01 0.01 0.;
    velocity_bias = Vec3.zero;
    drift_cap = None;
    location_noise = Gaussian_report Location_sensing.default;
    read_every = 1;
    movements = [];
  }

let straight_pass ?(speed = 0.1) (wh : Warehouse.t) ~rounds =
  if rounds <= 0 then invalid_arg "Trace_gen.straight_pass: rounds must be positive";
  if speed <= 0. then invalid_arg "Trace_gen.straight_pass: speed must be positive";
  (* 1 ft of run-in and run-out at each end. *)
  let run_length = wh.Warehouse.y_extent +. 2. in
  let epochs_per_pass = Int.max 1 (int_of_float (Float.ceil (run_length /. speed))) in
  List.init rounds (fun r ->
      let dir = if r mod 2 = 0 then 1. else -1. in
      {
        velocity = Vec3.make 0. (dir *. speed) 0.;
        heading = 0.;
        seg_epochs = epochs_per_pass;
      })

let run ~world ~object_locs ~start ~path ~config rng =
  if config.read_every <= 0 then invalid_arg "Trace_gen.run: read_every must be positive";
  let num_objects = Array.length object_locs in
  List.iter
    (fun m ->
      if m.move_obj < 0 || m.move_obj >= num_objects then
        invalid_arg "Trace_gen.run: movement refers to unknown object")
    config.movements;
  let moves = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.add moves m.move_epoch m) config.movements;
  let total_epochs = List.fold_left (fun acc s -> acc + s.seg_epochs) 0 path in
  (* Snapshots are shared between consecutive epochs and only copied
     when a scripted movement actually changes them — a deep copy per
     epoch would make long traces of large warehouses cost hundreds of
     megabytes for ground truth alone. *)
  let locs = ref (Array.copy object_locs) in
  let true_pos = ref start.Reader_state.loc in
  let nominal_pos = ref start.Reader_state.loc in
  let steps = Array.make total_epochs None in
  let epoch = ref 0 in
  let shelf_tags = World.shelf_tags world in
  List.iter
    (fun seg ->
      for _ = 1 to seg.seg_epochs do
        let e = !epoch in
        (* True motion: nominal velocity + systematic bias + jitter. *)
        let jitter =
          Vec3.make
            (Rfid_prob.Rng.gaussian rng ~sigma:config.motion_sigma.Vec3.x ())
            (Rfid_prob.Rng.gaussian rng ~sigma:config.motion_sigma.Vec3.y ())
            (Rfid_prob.Rng.gaussian rng ~sigma:config.motion_sigma.Vec3.z ())
        in
        if e > 0 then begin
          nominal_pos := Vec3.add !nominal_pos seg.velocity;
          true_pos :=
            Vec3.add !true_pos (Vec3.add seg.velocity (Vec3.add config.velocity_bias jitter));
          match config.drift_cap with
          | Some cap ->
              let dev = Vec3.sub !true_pos !nominal_pos in
              let n = Vec3.norm dev in
              if n > cap then true_pos := Vec3.add !nominal_pos (Vec3.scale (cap /. n) dev)
          | None -> ()
        end;
        let reader = Reader_state.make ~loc:!true_pos ~heading:seg.heading in
        let reported =
          match config.location_noise with
          | Gaussian_report sensing -> Location_sensing.sample_report sensing rng !true_pos
          | Dead_reckoning -> !nominal_pos
        in
        (* Scripted object relocations at the start of this epoch
           (copy-on-write: unchanged epochs share the snapshot). *)
        (match Hashtbl.find_all moves e with
        | [] -> ()
        | ms ->
            let fresh = Array.copy !locs in
            List.iter (fun m -> fresh.(m.move_obj) <- m.move_to) ms;
            locs := fresh);
        let read_tags =
          if e mod config.read_every <> 0 then []
          else begin
            let sense tag_loc =
              let p =
                Truth_sensor.read_prob_at config.sensor ~reader_loc:!true_pos
                  ~reader_heading:seg.heading ~tag_loc
              in
              Rfid_prob.Rng.bernoulli rng ~p
            in
            let objs = ref [] in
            for i = num_objects - 1 downto 0 do
              if sense !locs.(i) then objs := Types.Object_tag i :: !objs
            done;
            let shelves =
              List.filter_map
                (fun (tag, loc) -> if sense loc then Some tag else None)
                shelf_tags
            in
            !objs @ shelves
          end
        in
        let obs = { Types.o_epoch = e; o_reported_loc = reported; o_read_tags = read_tags } in
        steps.(e) <-
          Some
            {
              Trace.epoch = e;
              true_reader = reader;
              true_object_locs = !locs;
              observation = obs;
            };
        incr epoch
      done)
    path;
  let steps =
    Array.map
      (function Some s -> s | None -> invalid_arg "Trace_gen.run: internal gap")
      steps
  in
  { Trace.world; num_objects; steps }
