open Rfid_geom
open Rfid_model

(* Completeness confidence: a window of w* ~ ln(1/delta) / p_avg
   epochs reads a present tag with probability 1 - delta. *)
let delta = 0.05

(* Window-size cap, epochs. *)
let max_window = 25

(* Reads before the window logic engages. *)
let required_reads = 1

module Window = struct
  (* Ring buffer of per-epoch read outcomes, newest last; the window is
     the suffix of length [size]. *)
  type t = {
    history : bool array;  (* circular, capacity max_window *)
    mutable filled : int;
    mutable head : int;  (* next write slot *)
    mutable size : int;  (* current adaptive window size *)
    mutable total_reads : int;
  }

  let create () =
    {
      history = Array.make max_window false;
      filled = 0;
      head = 0;
      size = 1;
      total_reads = 0;
    }

  let nth_newest t k =
    (* k = 0 is the most recent epoch. *)
    let cap = Array.length t.history in
    t.history.((t.head - 1 - k + (2 * cap)) mod cap)

  let counts t n =
    (* reads within the n most recent epochs (n <= filled) *)
    let c = ref 0 in
    for k = 0 to n - 1 do
      if nth_newest t k then incr c
    done;
    !c

  let observe t ~read ~epoch:_ =
    let cap = Array.length t.history in
    t.history.(t.head) <- read;
    t.head <- (t.head + 1) mod cap;
    t.filled <- Int.min cap (t.filled + 1);
    if read then t.total_reads <- t.total_reads + 1;
    if t.total_reads >= required_reads then begin
      let n = Int.min t.size t.filled in
      let s = counts t n in
      if s > 0 then begin
        let p_avg = float_of_int s /. float_of_int n in
        (* Completeness: window large enough that a present tag is read
           with probability 1 - delta. *)
        let w_star =
          int_of_float (Float.ceil (log (1. /. delta) /. p_avg))
        in
        let w_star = Int.max 1 (Int.min max_window w_star) in
        (* Transition detection on the recent half-window: an observed
           count more than 2 sigma below expectation flags an exit. *)
        let half = Int.max 1 (n / 2) in
        let s_recent = counts t half in
        let expected = float_of_int half *. p_avg in
        let sigma = sqrt (float_of_int half *. p_avg *. (1. -. p_avg)) in
        if float_of_int s_recent < expected -. (2. *. sigma) then
          t.size <- Int.max 1 (t.size / 2)
        else if t.size < w_star then t.size <- Int.min max_window (t.size * 2)
        else t.size <- w_star
      end
    end

  let present t =
    let n = Int.min t.size (Int.max 1 t.filled) in
    counts t n > 0
end

type tag_state = {
  window : Window.t;
  mutable samples : Vec3.t list;  (* locations sampled during this presence period *)
  mutable sample_count : int;
  mutable last_present : int;
  mutable was_present : bool;
}

(* Uniform sample over (disc of read_range around center) ∩ shelves, by
   rejection from the shelf area; falls back to the clamped centre. With
   [facing], samples behind the antenna are rejected too. *)
let sample_in_range world rng ~center ~range ?facing () =
  let admissible (p : Vec3.t) =
    Vec3.dist_xy p center <= range
    && match facing with
       | None -> true
       | Some heading ->
           let dx = p.Vec3.x -. center.Vec3.x and dy = p.Vec3.y -. center.Vec3.y in
           (dx *. cos heading) +. (dy *. sin heading) >= 0.
  in
  let box = Box2.of_center center ~half_width:range ~half_height:range in
  let shelves = World.shelves world in
  let candidates =
    Array.to_list shelves
    |> List.filter_map (fun (s : World.shelf) ->
           if Box2.intersects s.World.surface box then Some s.World.surface else None)
  in
  match candidates with
  | [] -> World.clamp_to_shelves world center
  | boxes ->
      let areas = Array.of_list (List.map Box2.area boxes) in
      let boxes = Array.of_list boxes in
      let rec attempt k =
        if k = 0 then World.clamp_to_shelves world center
        else begin
          let b = boxes.(Rfid_prob.Rng.categorical rng areas) in
          let x = Rfid_prob.Rng.uniform rng ~lo:b.Box2.min_x ~hi:b.Box2.max_x in
          let y = Rfid_prob.Rng.uniform rng ~lo:b.Box2.min_y ~hi:b.Box2.max_y in
          let p = Vec3.make x y center.Vec3.z in
          if admissible p then p else attempt (k - 1)
        end
      in
      attempt 64

let run ~world ~read_range ?heading_of ~seed observations =
  if read_range <= 0. then invalid_arg "Smurf.run: read_range must be positive";
  let rng = Rfid_prob.Rng.create ~seed in
  let tags : (int, tag_state) Hashtbl.t = Hashtbl.create 64 in
  let events = ref [] in
  let close_period obj st =
    if st.sample_count > 0 then begin
      let mean =
        Vec3.scale
          (1. /. float_of_int st.sample_count)
          (List.fold_left Vec3.add Vec3.zero st.samples)
      in
      events :=
        Rfid_core.Event.make ~epoch:st.last_present ~obj ~loc:mean () :: !events
    end;
    st.samples <- [];
    st.sample_count <- 0
  in
  List.iter
    (fun (obs : Types.observation) ->
      let e = obs.Types.o_epoch in
      let read_now = Hashtbl.create 8 in
      List.iter
        (fun tag ->
          match tag with
          | Types.Object_tag i ->
              Hashtbl.replace read_now i ();
              if not (Hashtbl.mem tags i) then
                Hashtbl.replace tags i
                  {
                    window = Window.create ();
                    samples = [];
                    sample_count = 0;
                    last_present = e;
                    was_present = false;
                  }
          | Types.Shelf_tag _ -> ())
        obs.Types.o_read_tags;
      Hashtbl.iter
        (fun obj st ->
          Window.observe st.window ~read:(Hashtbl.mem read_now obj) ~epoch:e;
          let present = Window.present st.window in
          if present then begin
            st.last_present <- e;
            let facing = Option.map (fun f -> f e) heading_of in
            st.samples <-
              sample_in_range world rng ~center:obs.Types.o_reported_loc
                ~range:read_range ?facing ()
              :: st.samples;
            st.sample_count <- st.sample_count + 1
          end
          else if st.was_present then close_period obj st;
          st.was_present <- present)
        tags)
    observations;
  Hashtbl.iter (fun obj st -> if st.was_present then close_period obj st) tags;
  List.rev !events
