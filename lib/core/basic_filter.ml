open Rfid_geom
open Rfid_model
module Ps = Rfid_prob.Particle_store
module Obs = Rfid_obs.Metrics

(* Observability handles. The stage spans share names with the
   factored filter's; the joint filter runs only in experiments and tests,
   so the shared histograms describe whichever filter the run drives.
   The joint filter keeps a single weight vector, hence one joint ESS
   histogram instead of the factored per-object/reader split. *)
let sp_pose_memo = Obs.span "stage.pose_memo"
let sp_weighting = Obs.span "stage.weighting"
let sp_resampling = Obs.span "stage.resampling"
let h_joint_ess = Obs.histogram "health.joint_ess"
let c_joint_resamples = Obs.counter "filter.joint_resamples"
let c_resamples_skipped = Obs.counter "filter.resamples_skipped"
let c_saturated = Obs.counter "health.saturated_particles"
let c_sensor_evals = Obs.counter "health.sensor_evals"
let c_memo_reused = Obs.counter "health.pose_memo_reused"

(* Joint particles in structure-of-arrays form: particle [p]'s object
   locations live in row [p] of a single [J * N] slab (slot
   [p * num_objects + i] for object [i]), its reader hypothesis in
   [readers.(p)], and its log weight in [log_ws.(p)]. The per-epoch hot
   loops (proposal, weighting, normalization, resampling) run over
   these slabs and a set of persistent buffers, so the steady state
   allocates nothing per epoch; every loop performs the identical
   floating-point operations in the identical order as the former
   array-of-records code (golden-trace tests hold it there). *)
type t = {
  world : World.t;
  params : Params.t;
  config : Config.t;
  rng : Rfid_prob.Rng.t;
  num_objects : int;
  mutable readers : Reader_state.t array;  (* J reader hypotheses *)
  mutable spare_readers : Reader_state.t array;  (* resample double-buffer *)
  store : Ps.t;  (* J*N object locations, row-major by particle *)
  spare : Ps.t;  (* resample double-buffer for [store] *)
  log_ws : float array;  (* J per-particle log weights *)
  accbuf : float array;  (* J per-epoch weight increments (scratch) *)
  wbuf : float array;  (* J normalized weights (scratch) *)
  idxbuf : int array;  (* J resample indices (scratch) *)
  obj_read : bool array;  (* N per-epoch read flags (scratch) *)
  shelf_read : (int, unit) Hashtbl.t;  (* per-epoch, cleared not rebuilt *)
  pre : Sensor_model.pre;  (* J reader poses, refreshed each epoch *)
  cache : Common.Sensor_cache.t;
  shelf_tags : (Types.tag * Vec3.t) array;
  mutable last_reported : Vec3.t option;
  mutable epoch : int;
  last_read : int array;  (* -1 = never *)
  last_read_reader : Vec3.t array;
  mutable newly_seen : int list;
}

let slot t p i = (p * t.num_objects) + i

let create ~world ~params ~config ~init_reader ~num_objects ~rng =
  if num_objects < 0 then invalid_arg "Basic_filter.create: negative num_objects";
  let j = config.Config.num_reader_particles in
  let store = Ps.create ~n:(j * num_objects) in
  let readers =
    Array.init j (fun p ->
        let loc =
          Common.jitter init_reader.Reader_state.loc
            ~sigma:params.Params.sensing.Location_sensing.sigma rng
        in
        for i = 0 to num_objects - 1 do
          let l = World.sample_on_shelves world rng in
          Ps.set_loc store ((p * num_objects) + i) ~x:l.Vec3.x ~y:l.Vec3.y ~z:l.Vec3.z
        done;
        Reader_state.make ~loc ~heading:init_reader.Reader_state.heading)
  in
  {
    world;
    params;
    config;
    rng;
    num_objects;
    readers;
    spare_readers = Array.copy readers;
    store;
    spare = Ps.create ~n:(j * num_objects);
    log_ws = Array.make j 0.;
    accbuf = Array.make j 0.;
    wbuf = Array.make j 0.;
    idxbuf = Array.make j 0;
    obj_read = Array.make num_objects false;
    shelf_read = Hashtbl.create 8;
    pre = Sensor_model.precompute params.Params.sensor ~n:j;
    cache =
      Common.Sensor_cache.create ~threshold:Config.detection_threshold
        ~max_range:Config.max_sensing_range
        params.Params.sensor;
    shelf_tags = Array.of_list (World.shelf_tags world);
    last_reported = None;
    epoch = -1;
    last_read = Array.make num_objects (-1);
    last_read_reader = Array.make num_objects Vec3.zero;
    newly_seen = [];
  }

let num_particles t = Array.length t.readers

let refresh_memo t =
  let changed = ref false in
  for p = 0 to num_particles t - 1 do
    let r = t.readers.(p) in
    let loc = r.Reader_state.loc in
    if
      Sensor_model.pre_set_pose_checked t.pre p ~x:loc.Vec3.x ~y:loc.Vec3.y
        ~z:loc.Vec3.z ~heading:r.Reader_state.heading
    then changed := true
  done;
  if not !changed then Obs.incr c_memo_reused 1

let reinit_object t p i =
  let r = t.readers.(p) in
  let loc =
    Common.sample_initial_location t.cache
      ~overestimate:Config.init_overestimate ~world:t.world
      ~reader_loc:r.Reader_state.loc ~heading:r.Reader_state.heading t.rng
  in
  Ps.set_loc t.store (slot t p i) ~x:loc.Vec3.x ~y:loc.Vec3.y ~z:loc.Vec3.z

let step t (obs : Types.observation) =
  if obs.Types.o_epoch <= t.epoch then
    invalid_arg "Basic_filter.step: observations out of epoch order";
  let e = obs.Types.o_epoch in
  let reported = obs.Types.o_reported_loc in
  let j = num_particles t in
  t.newly_seen <- [];
  (* Split readings (into the persistent per-epoch scratch). *)
  Array.fill t.obj_read 0 t.num_objects false;
  Hashtbl.clear t.shelf_read;
  List.iter
    (fun tag ->
      match tag with
      | Types.Object_tag i -> if i >= 0 && i < t.num_objects then t.obj_read.(i) <- true
      | Types.Shelf_tag i -> Hashtbl.replace t.shelf_read i ())
    obs.Types.o_read_tags;
  (* Proposal: move readers and objects. *)
  let t_pose = Obs.start sp_pose_memo in
  let delta =
    Common.proposal_delta t.config.Config.proposal ~motion:t.params.Params.motion
      ~last_reported:t.last_reported ~reported
  in
  let motion = t.params.Params.motion in
  let sigma =
    match t.config.Config.proposal_noise_override with
    | Some s -> s
    | None ->
        Common.proposal_sigma t.config.Config.proposal ~motion
          ~sensing:t.params.Params.sensing
  in
  let move_prob = t.params.Params.objects.Object_model.move_prob in
  for p = 0 to j - 1 do
    let r = t.readers.(p) in
    let loc =
      match t.config.Config.proposal with
      | Config.From_reported_location -> Common.jitter reported ~sigma t.rng
      | Config.From_velocity | Config.From_reported_displacement ->
          Common.jitter (Vec3.add r.Reader_state.loc delta) ~sigma t.rng
    in
    let heading =
      Common.propose_heading t.config.Config.heading_model ~motion ~epoch:e
        ~current:r.Reader_state.heading t.rng
    in
    t.readers.(p) <- Reader_state.make ~loc ~heading;
    (* Move hypotheses only where evidence can judge them — see the
       matching comment in Factored_filter. [Object_model.sample_next]
       is inlined so a particle that stays put writes nothing. *)
    for i = 0 to t.num_objects - 1 do
      if t.obj_read.(i) then
        if Rfid_prob.Rng.bernoulli t.rng ~p:move_prob then begin
          let l = World.sample_on_shelves t.world t.rng in
          Ps.set_loc t.store (slot t p i) ~x:l.Vec3.x ~y:l.Vec3.y ~z:l.Vec3.z
        end
    done
  done;
  (* Detection-driven (re)initialization of object hypotheses. *)
  for i = 0 to t.num_objects - 1 do
    if t.obj_read.(i) then begin
      if t.last_read.(i) < 0 then
        for p = 0 to j - 1 do
          reinit_object t p i
        done
      else begin
        let d = Vec3.dist reported t.last_read_reader.(i) in
        if d >= Config.reinit_far then
          for p = 0 to j - 1 do
            reinit_object t p i
          done
        else if d >= Config.reinit_near then
          (* Keep half the hypotheses, spread the other half at the new
             location (§IV-A). *)
          for p = 0 to j - 1 do
            if Rfid_prob.Rng.bool t.rng then reinit_object t p i
          done
      end
    end
  done;
  (* Weighting, against the freshly proposed poses via the memo. *)
  refresh_memo t;
  Obs.stop sp_pose_memo t_pose;
  let t_weight = Obs.start sp_weighting in
  (* Batched: one cross-module call per evidence source against every
     particle, instead of one per (particle, source) — the same terms
     accumulate into [accbuf.(p)] in the same order the former
     per-particle [lw] ref summed them (location, shelf tags in array
     order, then objects ascending), so each increment is
     bit-identical. *)
  let acc = t.accbuf in
  let rx, ry, rz, _ = Sensor_model.pre_poses t.pre in
  Location_sensing.log_pdf_poses_into t.params.Params.sensing ~reported ~rx ~ry ~rz
    ~n:j acc;
  let culled = ref 0 in
  Array.iter
    (fun (tag, tag_loc) ->
      let read =
        match tag with Types.Shelf_tag i -> Hashtbl.mem t.shelf_read i | _ -> false
      in
      culled :=
        !culled
        + Sensor_model.pre_accumulate_tag t.pre ~tx:tag_loc.Vec3.x ~ty:tag_loc.Vec3.y
            ~tz:tag_loc.Vec3.z ~read ~miss_weight:Config.shelf_miss_weight acc)
    t.shelf_tags;
  for i = 0 to t.num_objects - 1 do
    (* Objects never read are still latent but carry no evidence
       coupling beyond the miss term; include it — this is the full
       joint model. *)
    culled :=
      !culled
      + Sensor_model.pre_accumulate_joint_obj t.pre t.store ~obj:i
          ~num_objects:t.num_objects ~read:t.obj_read.(i) acc
  done;
  for p = 0 to j - 1 do
    t.log_ws.(p) <- t.log_ws.(p) +. acc.(p)
  done;
  if !culled > 0 then Obs.incr c_saturated !culled;
  Obs.incr c_sensor_evals ((j * (Array.length t.shelf_tags + t.num_objects)) - !culled);
  Obs.stop sp_weighting t_weight;
  (* Normalize in log space, resample on degeneracy. All buffers are
     persistent: [log_ws] is the log-weight vector itself, [wbuf] its
     normalized image, [idxbuf] the resample indices. *)
  let t_res = Obs.start sp_resampling in
  Rfid_prob.Stats.normalize_log_weights_into ~src:t.log_ws ~dst:t.wbuf;
  let ess = Rfid_prob.Stats.effective_sample_size t.wbuf in
  Obs.observe h_joint_ess ess;
  let jf = float_of_int j in
  let degenerate = ess < t.config.Config.resample_ratio *. jf in
  let vetoed =
    (* The same ESS cap the factored filter applies: when the classic
       gate fires but ESS still clears [resample_ess_ratio * j], the
       joint resample is skipped and the weights carry over (vacuous at
       the default cap of 1.0). *)
    degenerate && ess >= t.config.Config.resample_ess_ratio *. jf
  in
  if vetoed then Obs.incr c_resamples_skipped 1;
  if degenerate && not vetoed then begin
    Obs.incr c_joint_resamples 1;
    Common.resample_into t.config.Config.resample_scheme t.rng t.wbuf ~n:j
      ~out:t.idxbuf;
    for p = 0 to j - 1 do
      t.spare_readers.(p) <- t.readers.(t.idxbuf.(p))
    done;
    let tmp = t.readers in
    t.readers <- t.spare_readers;
    t.spare_readers <- tmp;
    for p = 0 to j - 1 do
      Ps.blit ~src:t.store ~src_pos:(t.idxbuf.(p) * t.num_objects) ~dst:t.spare
        ~dst_pos:(p * t.num_objects) ~len:t.num_objects
    done;
    Ps.swap t.store t.spare;
    Array.fill t.log_ws 0 j 0.
  end
  else begin
    (* Keep weights centred to avoid underflow. The former code
       recomputed [log_sum_exp] per particle over the same snapshot —
       one evaluation, reused, is the identical value. *)
    let z = Rfid_prob.Stats.log_sum_exp t.log_ws in
    for p = 0 to j - 1 do
      t.log_ws.(p) <- t.log_ws.(p) -. z
    done
  end;
  Obs.stop sp_resampling t_res;
  (* Bookkeeping for scope tracking. *)
  for i = 0 to t.num_objects - 1 do
    if t.obj_read.(i) then begin
      if t.last_read.(i) < 0 || e - t.last_read.(i) > Config.out_of_scope_after
      then t.newly_seen <- i :: t.newly_seen;
      t.last_read.(i) <- e;
      t.last_read_reader.(i) <- reported
    end
  done;
  t.last_reported <- Some reported;
  t.epoch <- e

let weights t = Rfid_prob.Stats.normalize_log_weights t.log_ws

let estimate t obj =
  if obj < 0 || obj >= t.num_objects || t.last_read.(obj) < 0 then None
  else begin
    let w = weights t in
    let pts =
      Array.init (num_particles t) (fun p ->
          let s = slot t p obj in
          [| Ps.x t.store s; Ps.y t.store s; Ps.z t.store s |])
    in
    let g = Rfid_prob.Gaussian.fit ~w pts in
    Some (Vec3.of_array (Rfid_prob.Gaussian.mean g), Rfid_prob.Gaussian.cov g)
  end

let newly_seen t = t.newly_seen

let epoch t = t.epoch
