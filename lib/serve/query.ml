module Vec3 = Rfid_geom.Vec3
module Box2 = Rfid_geom.Box2
module Dyn_index = Rfid_geom.Dyn_index
module Engine = Rfid_core.Engine
module Event = Rfid_core.Event
module G = Rfid_prob.Gaussian.Univariate
module Obs = Rfid_obs.Metrics

let sp_maintain = Obs.span "stage.query_maintain"
let c_fit_cache_hits = Obs.counter "query.fit_cache_hits"
let c_index_updates = Obs.counter "query.index_updates"
let c_full_rebuilds = Obs.counter "query.full_rebuilds"

let sigma_reach = 3.5
let min_mass_floor = 0.001

(* One cached moment-matched Gaussian fit, shared by RANGE (per-axis
   mass), AT (mean + sd_xy) and NEAR (mean): recomputed only when the
   engine's change feed flags the object. [f_stamp] is the global
   refit stamp at the last recomputation — AT compares it across a
   [maintain] to count cache hits. [f_handle] is the object's entry in
   the dynamic spatial index. *)
type fit = {
  f_obj : int;
  mutable f_mu_x : float;
  mutable f_sd_x : float;
  mutable f_mu_y : float;
  mutable f_sd_y : float;
  mutable f_loc : Vec3.t;
  mutable f_sd_xy : float;
  mutable f_handle : int;
  mutable f_stamp : int;
  mutable f_xyz : string;
      (* rendered "x y z" of [f_loc], or "" when not yet rendered since
         the last refit — round-trip float formatting is the
         per-hit cost of a big RANGE reply, so it is paid once per fit,
         not once per query. *)
}

let dummy_fit =
  {
    f_obj = -1;
    f_mu_x = 0.;
    f_sd_x = 0.;
    f_mu_y = 0.;
    f_sd_y = 0.;
    f_loc = Vec3.zero;
    f_sd_xy = 0.;
    f_handle = -1;
    f_stamp = -1;
    f_xyz = "";
  }

type answer = { a_obj : int; a_mass : float; a_loc : Vec3.t; a_xyz : string }

type near_answer = {
  n_obj : int;
  n_dist : float;
  n_loc : Vec3.t;
  n_xyz : string;
}

type t = {
  index : fit Dyn_index.t;
  hits : fit Dyn_index.Hits.t;
  fits : (int, fit) Hashtbl.t;
  mutable full_invalid : bool;
  mutable stamp : int;  (* monotone; bumped per refit *)
  (* Event ring: [ring] is a circular buffer of the last [keep] events;
     [head] is the slot the next event lands in. *)
  ring : Event.t option array;
  keep : int;
  mutable head : int;
  mutable seen : int;
}

let create ?(events_keep = 4096) () =
  if events_keep < 1 then invalid_arg "Query.create: events_keep must be >= 1";
  {
    index = Dyn_index.create ~dummy:dummy_fit ();
    hits = Dyn_index.Hits.create ~dummy:dummy_fit;
    fits = Hashtbl.create 256;
    full_invalid = true;
    stamp = 0;
    ring = Array.make events_keep None;
    keep = events_keep;
    head = 0;
    seen = 0;
  }

(* A posterior with a degenerate axis (all particles agreed exactly)
   still occupies a point; give its box a hair of width so the closed
   intersection test finds it, and treat its axis mass as a step
   function in [axis_mass]. *)
let box_of ~mu_x ~sd_x ~mu_y ~sd_y =
  let rx = Float.max (sigma_reach *. sd_x) 1e-9 in
  let ry = Float.max (sigma_reach *. sd_y) 1e-9 in
  Box2.make ~min_x:(mu_x -. rx) ~min_y:(mu_y -. ry) ~max_x:(mu_x +. rx)
    ~max_y:(mu_y +. ry)

(* Recompute one object's cached fit from a fresh engine estimate and
   move its index entry — the only place fits are written. *)
let refit t obj (mean : Vec3.t) (cov : Rfid_prob.Linalg.mat) =
  let sd_x = sqrt (Float.max 0. cov.(0).(0)) in
  let sd_y = sqrt (Float.max 0. cov.(1).(1)) in
  let sd_xy = sqrt (Float.max 0. ((cov.(0).(0) +. cov.(1).(1)) /. 2.)) in
  let box = box_of ~mu_x:mean.Vec3.x ~sd_x ~mu_y:mean.Vec3.y ~sd_y in
  t.stamp <- t.stamp + 1;
  Obs.incr c_index_updates 1;
  match Hashtbl.find_opt t.fits obj with
  | Some f ->
      f.f_mu_x <- mean.Vec3.x;
      f.f_sd_x <- sd_x;
      f.f_mu_y <- mean.Vec3.y;
      f.f_sd_y <- sd_y;
      f.f_loc <- mean;
      f.f_sd_xy <- sd_xy;
      f.f_stamp <- t.stamp;
      f.f_xyz <- "";
      Dyn_index.update t.index f.f_handle box f
  | None ->
      let f =
        {
          f_obj = obj;
          f_mu_x = mean.Vec3.x;
          f_sd_x = sd_x;
          f_mu_y = mean.Vec3.y;
          f_sd_y = sd_y;
          f_loc = mean;
          f_sd_xy = sd_xy;
          f_handle = -1;
          f_stamp = t.stamp;
          f_xyz = "";
        }
      in
      f.f_handle <- Dyn_index.insert t.index box f;
      Hashtbl.replace t.fits obj f

(* Bring the cache and index up to date with the engine, visiting only
   what changed: a wholesale rebuild on the first call, every object when the change feed says
   everything moved (degraded widening, restore), and otherwise
   exactly the dirty ids. Consumes the feed. *)
let maintain t ~engine =
  let t0 = Obs.start sp_maintain in
  if t.full_invalid then begin
    Obs.incr c_full_rebuilds 1;
    Dyn_index.clear t.index;
    Hashtbl.reset t.fits;
    Engine.iter_estimates engine (fun obj mean cov -> refit t obj mean cov);
    t.full_invalid <- false
  end
  else if Engine.changes_dirty_all engine then
    Engine.iter_estimates engine (fun obj mean cov -> refit t obj mean cov)
  else
    Engine.iter_dirty_changes engine (fun obj ->
        match Engine.estimate engine obj with
        | Some (mean, cov) -> refit t obj mean cov
        | None -> ());
  Engine.clear_changes engine;
  Obs.stop sp_maintain t0

let xyz_str (f : fit) =
  if String.length f.f_xyz = 0 then
    f.f_xyz <-
      String.concat " "
        [
          Framing.float_str f.f_loc.Vec3.x;
          Framing.float_str f.f_loc.Vec3.y;
          Framing.float_str f.f_loc.Vec3.z;
        ];
  f.f_xyz

let axis_mass ~mu ~sd ~lo ~hi =
  if sd > 0. then
    let g = G.create ~mu ~sigma:sd in
    G.cdf g hi -. G.cdf g lo
  else if mu >= lo && mu <= hi then 1.
  else 0.

let range t ~engine ~min_x ~min_y ~max_x ~max_y ~min_mass =
  let finite = Float.is_finite in
  if not (finite min_x && finite min_y && finite max_x && finite max_y) then
    invalid_arg "Query.range: bounds must be finite";
  if min_x > max_x || min_y > max_y then
    invalid_arg "Query.range: min bound exceeds max bound";
  if not (finite min_mass) then invalid_arg "Query.range: min-mass must be finite";
  let min_mass = Float.max min_mass min_mass_floor in
  maintain t ~engine;
  let probe = Box2.make ~min_x ~min_y ~max_x ~max_y in
  Dyn_index.query_into t.index probe t.hits;
  let out = ref [] in
  for i = 0 to Dyn_index.Hits.length t.hits - 1 do
    let f = Dyn_index.Hits.get t.hits i in
    let mx = axis_mass ~mu:f.f_mu_x ~sd:f.f_sd_x ~lo:min_x ~hi:max_x in
    let my = axis_mass ~mu:f.f_mu_y ~sd:f.f_sd_y ~lo:min_y ~hi:max_y in
    let mass = mx *. my in
    if mass >= min_mass then
      out :=
        { a_obj = f.f_obj; a_mass = mass; a_loc = f.f_loc; a_xyz = xyz_str f }
        :: !out
  done;
  List.sort (fun a b -> Int.compare a.a_obj b.a_obj) !out

let at t ~engine obj =
  let stamp_before =
    match Hashtbl.find_opt t.fits obj with Some f -> f.f_stamp | None -> -1
  in
  maintain t ~engine;
  match Hashtbl.find_opt t.fits obj with
  | None -> None
  | Some f ->
      (* Same record, same stamp: this lookup did zero fit_gaussian
         work. (A full rebuild replaces the record and re-stamps, so
         it can never masquerade as a hit.) *)
      if f.f_stamp = stamp_before then Obs.incr c_fit_cache_hits 1;
      Some (f.f_loc, f.f_sd_xy)

let near t ~engine ~k ~x ~y =
  if k < 1 then invalid_arg "Query.near: k must be >= 1";
  if not (Float.is_finite x && Float.is_finite y) then
    invalid_arg "Query.near: center must be finite";
  maintain t ~engine;
  let n = Dyn_index.size t.index in
  if n = 0 then []
  else begin
    let dist (f : fit) = Float.hypot (f.f_mu_x -. x) (f.f_mu_y -. y) in
    let collect () =
      let cands = ref [] in
      for i = 0 to Dyn_index.Hits.length t.hits - 1 do
        let f = Dyn_index.Hits.get t.hits i in
        cands := (dist f, f) :: !cands
      done;
      List.sort
        (fun (da, fa) (db, fb) ->
          match Float.compare da db with 0 -> Int.compare fa.f_obj fb.f_obj | c -> c)
        !cands
    in
    (* Expanding square probe: any mean within Euclidean distance r of
       the center lies inside the r-square, so its box intersects the
       probe and it is among the candidates — once k candidates sit at
       distance <= r, nothing outside can beat them. A center so far
       from every object that the square stops growing usefully ranks
       all live fits instead. *)
    let rec probe r =
      if r > 1e12 then begin
        Dyn_index.Hits.clear t.hits;
        Dyn_index.iter t.index (fun _ _ f -> Dyn_index.Hits.push t.hits f);
        collect ()
      end
      else begin
        Dyn_index.query_into t.index
          (Box2.make ~min_x:(x -. r) ~min_y:(y -. r) ~max_x:(x +. r) ~max_y:(y +. r))
          t.hits;
        let m = Dyn_index.Hits.length t.hits in
        if m >= n then collect ()
        else if m >= k then begin
          let cands = collect () in
          let kth = List.nth cands (k - 1) in
          if fst kth <= r then cands else probe (2. *. r)
        end
        else probe (2. *. r)
      end
    in
    let cands = probe 1.0 in
    List.filteri (fun i _ -> i < k) cands
    |> List.map (fun (d, f) ->
           { n_obj = f.f_obj; n_dist = d; n_loc = f.f_loc; n_xyz = xyz_str f })
  end

let fit_count t = Hashtbl.length t.fits

let record_event t ev =
  t.ring.(t.head) <- Some ev;
  t.head <- (t.head + 1) mod t.keep;
  t.seen <- t.seen + 1

let events_since t ~epoch =
  let held = Int.min t.seen t.keep in
  let out = ref [] in
  (* Walk newest to oldest, prepending, so the result is oldest first. *)
  for i = 0 to held - 1 do
    let slot = (t.head - 1 - i + (2 * t.keep)) mod t.keep in
    match t.ring.(slot) with
    | Some ev when ev.Event.ev_epoch >= epoch -> out := ev :: !out
    | Some _ | None -> ()
  done;
  !out

let events_seen t = t.seen
let events_dropped t = Int.max 0 (t.seen - t.keep)
