(* Workload definitions and the seeded inputs each run sends: the PUT
   lines (from the simulator) and the fixed open-loop query schedule. *)

type verb = Range | At | Near | Ping

let verb_name = function
  | Range -> "RANGE"
  | At -> "AT"
  | Near -> "NEAR"
  | Ping -> "PING"

type warmup =
  | Warm_epochs of int  (** the first N epochs of the pass *)
  | Warm_round  (** one whole pass over the aisle *)

(* Both connections run open loop: the writer sends one PUT every
   1/[put_rate] s and a SYNC after every [sync_every]th PUT, the query
   client sends at [query_rate], whatever the server does. Capacity
   (closed-loop) runs swung up to 2x between runs on a shared host, so
   every workload offers fixed rates instead. *)
type spec = {
  name : string;
  objects : int;
  warmup : warmup;  (** untimed, closed loop: windows of PUTs + SYNC *)
  put_rate : float;  (** epochs/s offered by the writer *)
  query_rate : float;  (** requests/s offered by the query client *)
  mix : (verb * int) list;  (** exact proportions of the query schedule *)
  durable : bool;
      (** the in-process replays wire a WAL, a durable events log and
          rotating checkpoints as `rfid_clean serve` does; the live
          server runs without them (see README) *)
}

let specs =
  [
    {
      name = "ingest-5k";
      objects = 5000;
      warmup = Warm_epochs 256;
      put_rate = 100.;
      query_rate = 1000.;
      mix = [ (Range, 1); (At, 1); (Near, 1); (Ping, 1) ];
      durable = true;
    };
    {
      name = "query-mix-500";
      objects = 500;
      warmup = Warm_round;
      put_rate = 100.;
      query_rate = 1000.;
      mix = [ (Range, 10); (At, 7); (Near, 2); (Ping, 1) ];
      durable = false;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* The engine seed passed to [serve --seed]: fixed, so the workload
   seed changes only the inputs. The engine runs the server's defaults:
   the indexed variant with K = 200 particles per object. *)
let engine_seed = 42
let variant = "indexed"
let particles = 200
let warmup_window = 256
let sync_every = 10

(* An AT probe only names an object whose first reading was due at
   least this many epochs before the probe, so a healthy server always
   knows it (the admission queue holds at most 1024). *)
let at_margin_epochs = 2048

type query = { q_due : float; q_verb : verb; q_line : string }

type inputs = {
  spec : spec;
  seed : int;
  lines : string array;  (** PUT payloads in epoch order *)
  warm : int;  (** lines.(0 .. warm-1) are the untimed warm-up *)
  truth : Rfid_geom.Vec3.t array;  (** true object locations *)
  queries : query array;  (** due offsets from the timed phase's start *)
  check_ranges : string list;  (** the fixed RANGE set of the output check *)
}

(* Range windows are fixed-size: 1/8 of the 500-object warehouse's
   aisle, full shelf depth in x, min-mass 0.05 — the serving windows of
   bench/bench_json.ml, so a window's answer count tracks local density
   rather than universe size. *)
let window_height =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:500 () in
     let bb = Rfid_model.World.bounding_box wh.Rfid_sim.Warehouse.world in
     (bb.Rfid_geom.Box2.max_y -. bb.Rfid_geom.Box2.min_y) /. 8.)

let truncate_path path ~epochs =
  let rec go left = function
    | [] -> []
    | (seg : Rfid_sim.Trace_gen.segment) :: rest ->
        if left <= 0 then []
        else if seg.seg_epochs >= left then [ { seg with seg_epochs = left } ]
        else seg :: go (left - seg.seg_epochs) rest
  in
  go epochs path

let timed_epochs spec ~seconds = int_of_float (Float.round (spec.put_rate *. seconds))

let build spec ~seed ~seconds =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:spec.objects () in
  let per_pass =
    List.fold_left
      (fun acc (s : Rfid_sim.Trace_gen.segment) -> acc + s.seg_epochs)
      0
      (Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
  in
  let warm = match spec.warmup with Warm_epochs n -> n | Warm_round -> per_pass in
  let total = warm + timed_epochs spec ~seconds in
  let rounds = (total + per_pass - 1) / per_pass in
  let path =
    truncate_path (Rfid_sim.Trace_gen.straight_pass wh ~rounds) ~epochs:total
  in
  let sensor = Rfid_sim.Truth_sensor.cone () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh) ~path
      ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
      (Rfid_prob.Rng.create ~seed)
  in
  let observations = Array.of_list (Rfid_model.Trace.observations trace) in
  let lines = Array.map Rfid_model.Trace_io.observation_to_line observations in
  (* First epoch each object was read in, for choosing AT ids the
     server already knows. *)
  let first_read = Array.make spec.objects max_int in
  Array.iteri
    (fun e (o : Rfid_model.Types.observation) ->
      List.iter
        (function
          | Rfid_model.Types.Object_tag i when first_read.(i) = max_int ->
              first_read.(i) <- e
          | _ -> ())
        o.Rfid_model.Types.o_read_tags)
    observations;
  let truth = wh.Rfid_sim.Warehouse.object_locs in
  let by_first_read =
    Array.init spec.objects Fun.id
    |> Array.to_list
    |> List.filter (fun i -> first_read.(i) < max_int)
    |> List.sort (fun a b -> Int.compare first_read.(a) first_read.(b))
    |> Array.of_list
  in
  let box = Rfid_model.World.bounding_box wh.Rfid_sim.Warehouse.world in
  let min_x = box.Rfid_geom.Box2.min_x and max_x = box.Rfid_geom.Box2.max_x in
  let min_y = box.Rfid_geom.Box2.min_y in
  (* Queries address the part of the aisle the trace covers. *)
  let covered_y =
    Array.fold_left
      (fun acc i -> Float.max acc truth.(i).Rfid_geom.Vec3.y)
      min_y by_first_read
    +. 1.
  in
  let h = Lazy.force window_height in
  let tiles = Int.max 1 (int_of_float (Float.ceil ((covered_y -. min_y) /. h))) in
  let range_line ~lo ~hi mass =
    Printf.sprintf "RANGE %.3f %.3f %.3f %.3f %s" min_x lo max_x hi mass
  in
  let tile i =
    let lo = min_y +. (h *. float_of_int i) in
    range_line ~lo ~hi:(lo +. h) "0.05"
  in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let n = int_of_float (Float.round (spec.query_rate *. seconds)) in
  let pattern =
    Array.of_list (List.concat_map (fun (v, w) -> List.init w (fun _ -> v)) spec.mix)
  in
  let verbs = Array.init n (fun j -> pattern.(j mod Array.length pattern)) in
  for j = n - 1 downto 1 do
    let k = Random.State.int rng (j + 1) in
    let v = verbs.(j) in
    verbs.(j) <- verbs.(k);
    verbs.(k) <- v
  done;
  (* Highest epoch whose PUT is due by offset [due]. *)
  let epoch_due due = warm + int_of_float (due *. spec.put_rate) in
  let known = ref 0 in
  let queries =
    Array.mapi
      (fun j verb ->
        let due = float_of_int j /. spec.query_rate in
        let line =
          match verb with
          | Range -> tile (Random.State.int rng tiles)
          | Near ->
              Printf.sprintf "NEAR 10 %.3f %.3f"
                (min_x +. Random.State.float rng (max_x -. min_x))
                (min_y +. Random.State.float rng (covered_y -. min_y))
          | Ping -> "PING"
          | At ->
              let horizon = Int.max (warm - 1) (epoch_due due - at_margin_epochs) in
              while
                !known < Array.length by_first_read
                && first_read.(by_first_read.(!known)) <= horizon
              do
                incr known
              done;
              if !known = 0 then failwith "workload: no object is read during warm-up";
              Printf.sprintf "AT %d" by_first_read.(Random.State.int rng !known)
        in
        { q_due = due; q_verb = verb; q_line = line })
      verbs
  in
  let check_ranges =
    List.init tiles tile
    @ [ range_line ~lo:min_y ~hi:box.Rfid_geom.Box2.max_y "0.5" ]
  in
  { spec; seed; lines; warm; truth; queries; check_ranges }
