open Rfid_geom
open Rfid_model
module Bitset = Rfid_prob.Bitset
module Ps = Rfid_prob.Particle_store
module Scratch = Rfid_prob.Scratch
module Obs = Rfid_obs.Metrics

(* Observability handles. Stage spans cover the phases of [step] in
   order; health gauges/histograms expose the quantities DESIGN.md
   section 10 names. *)
let sp_pose_memo = Obs.span "stage.pose_memo"
let sp_weighting = Obs.span "stage.weighting"
let sp_resampling = Obs.span "stage.resampling"
let sp_compression = Obs.span "stage.compression"
let h_object_ess = Obs.histogram "health.object_ess"
let h_object_budget = Obs.histogram "health.object_budget"
let g_reader_ess = Obs.gauge "health.reader_ess"
let g_scope_objects = Obs.gauge "health.scope_objects"
let g_particles_in_scope = Obs.gauge "health.particles_in_scope"
let g_index_boxes = Obs.gauge "health.index_boxes"
let c_obj_resamples = Obs.counter "filter.object_resamples"
let c_reader_resamples = Obs.counter "filter.reader_resamples"
let c_resamples_skipped = Obs.counter "filter.resamples_skipped"
let c_compressions = Obs.counter "filter.compressions"
let c_decompressions = Obs.counter "filter.decompressions"
let c_evictions = Obs.counter "health.evicted_objects"
let c_saturated = Obs.counter "health.saturated_particles"
let c_sensor_evals = Obs.counter "health.sensor_evals"
let c_memo_reused = Obs.counter "health.pose_memo_reused"

type reader_particle = { mutable state : Reader_state.t; mutable log_w : float }

(* Object particles live in structure-of-arrays slabs
   ([Rfid_prob.Particle_store]): x/y/z/log-weight columns plus a flat
   reader-pointer array, per object. The hot per-epoch loops
   (proposal, weighting, normalization, resampling) run over the slabs
   with zero steady-state allocation; every loop performs the identical
   floating-point operations in the identical order as the former
   array-of-records code, so the event stream is bit-identical (the
   golden-trace suite holds it there). *)
type belief = Active of Ps.t | Compressed of Rfid_prob.Gaussian.t

type obj_state = {
  obj_id : int;
  mutable belief : belief;
  mutable reader_gen : int;  (* generation of the reader pointers in [belief] *)
  mutable last_read : int;
  mutable last_read_reader : Vec3.t;
  mutable in_scope : bool;
      (* false once the lazy eviction queue has fired for the object's
         last read — the next read is a re-discovery (newly seen) *)
}

(* Past sensing regions: boxes in the spatial index, each carrying the
   objects that had particles there when the box was inserted
   (Fig. 4(b)/(c)). Entries are never removed, so their handles are
   dropped. Box contents are ascending id arrays — hits are consumed as
   sets, and the dense form walks without allocating. [pending]
   accumulates the processed scope between flushes by word-wise bitset
   union. *)
type obj_index = {
  regions : int array Dyn_index.t;
  pending : Bitset.t;
  mutable pending_box : Box2.t option;
  mutable last_insert_loc : Vec3.t option;
}

type t = {
  world : World.t;
  params : Params.t;
  config : Config.t;
  rng : Rfid_prob.Rng.t;
  substream : Rfid_prob.Rng.t;
      (* frozen base for per-(object, epoch) keyed substreams; never
         advanced after [create], so an object's draws do not depend on
         which other objects were updated before it *)
  scratch : Scratch.t;
  adaptive : bool;
      (* min_object_particles < num_object_particles: per-object
         budgets walk [budget_rungs]; off by default, leaving the hot
         path untouched *)
  budget_rungs : int array;
      (* ascending doubling ladder [min, 2*min, ..., num]; a single
         rung when adaptation is off *)
  pre : Sensor_model.pre;
      (* per-epoch memo of reader-particle poses, refreshed once per
         [step] before the per-object pass *)
  mutable readers : reader_particle array;
  mutable reader_gen : int;
  objects : (int, obj_state) Hashtbl.t;
  cache : Common.Sensor_cache.t;
  shelf_tags : (int * Vec3.t) array;  (* (id, location), ascending id *)
  shelf_index : int Dyn_index.t;  (* positions in [shelf_tags] *)
  index : obj_index option;
  compress : bool;
  compress_queue : (int * int) Queue.t;  (* (deadline epoch, obj id) *)
  evict_queue : (int * int) Queue.t;
      (* (fire epoch, obj id): an entry per read, fired lazily — the
         out-of-scope sweep touches only candidates whose deadline has
         passed, never the whole object table *)
  shelf_read : (int, unit) Hashtbl.t;  (* per-epoch, cleared not rebuilt *)
  idx_hits : int array Dyn_index.Hits.t;  (* Case-2 probe results, reused *)
  shelf_hits : int Dyn_index.Hits.t;  (* shelf-tag probe results, reused *)
  mutable scope_ids : int array;  (* ascending scope, dense; first [scope_len] valid *)
  mutable scope_len : int;
  mutable tmp_ids : int array;  (* missing shelf tags / index-flush members *)
  (* Change feed for the query layer (DESIGN.md section 13): ids whose
     posterior may have changed since the consumer's last
     [clear_changes], plus the everything-changed escape hatch for
     degraded-mode widening and restore. *)
  dirty : Bitset.t;
  mutable dirty_all : bool;
  (* Known ids as a sorted dense array: discovery inserts in place, so
     [iter_known]/[known_objects] never sort or scan the hashtable. *)
  mutable known_sorted : int array;
  mutable known_len : int;
  mutable last_reported : Vec3.t option;
  mutable epoch : int;
  mutable newly_seen : int list;
  mutable processed_last : int;
  mutable consecutive_degraded : int;
  mutable degraded_total : int;
}

(* Scratch-arena slot conventions (see [Rfid_prob.Scratch]): float
   slot 0 holds per-object normalized weights; float slot 3 holds the
   reader weights that stay live through the per-object pass, so it
   never aliases slot 0 even when the reader and object particle counts
   coincide. Int slot 0 holds resample indices. *)
let slot_obj_weights = 0
let slot_reader_scratch = 1  (* weight_readers accumulator; resample sum/combined *)
let slot_reader_adj = 2
let slot_reader_weights = 3
let slot_resample_idx = 0
let slot_reader_cnt = 1
let bslot_case1 = 0
let bslot_scope = 1
let bslot_near = 2

let make_shelf_index world =
  let tags =
    World.shelf_tags world
    |> List.filter_map (function
         | Types.Shelf_tag id, loc -> Some (id, loc)
         | Types.Object_tag _, _ -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> Array.of_list
  in
  let index = Dyn_index.create ~dummy:(-1) () in
  Array.iteri
    (fun i (_, loc) ->
      ignore (Dyn_index.insert index (Box2.of_center loc ~half_width:0.01 ~half_height:0.01) i))
    tags;
  (tags, index)

(* The adaptive budget ladder: doubling rungs from the floor up, capped
   at the full budget. *)
let budget_ladder config =
  let min_b = config.Config.min_object_particles in
  let max_b = config.Config.num_object_particles in
  let rec go acc r =
    if r >= max_b then List.rev (max_b :: acc) else go (r :: acc) (2 * r)
  in
  Array.of_list (go [] min_b)

(* Deterministic budget rule (DESIGN.md section 9): map posterior spread
   — sqrt of the weighted covariance trace — onto the rung ladder with
   thresholds anchored at [Config.reinit_near]. Spread at or above
   [reinit_near] earns the full budget; each halving of spread lowers
   the target one rung. The budget moves at most one rung per resample
   event, and stepping {e up} requires 1.5x the rung's down-threshold,
   so a posterior hovering at a boundary cannot flap. A store below the
   ladder floor (e.g. a just-decompressed belief) is pulled up to the
   floor. The rule reads only this object's particles and config
   constants, so it does not depend on the order objects are visited
   in. *)
let next_budget t ~k ~spread =
  let rungs = t.budget_rungs in
  let last = Array.length rungs - 1 in
  let c =
    let r = ref (-1) in
    for i = 0 to last do
      if rungs.(i) <= k then r := i
    done;
    !r
  in
  if c < 0 then rungs.(0)
  else
    let thr i = Config.reinit_near *. (0.5 ** float_of_int (last - i)) in
    if c < last && spread >= 1.5 *. thr (c + 1) then rungs.(c + 1)
    else if c > 0 && spread < thr c then rungs.(c - 1)
    else rungs.(c)

(* (spatial index, belief compression) of a variant. *)
let features config =
  match config.Config.variant with
  | Config.Factorized -> (false, false)
  | Config.Factorized_indexed -> (true, false)
  | Config.Factorized_compressed -> (true, true)

let create ~world ~params ~config ~init_reader ~rng =
  let use_index, compress = features config in
  let substream = Rfid_prob.Rng.split rng in
  let readers =
    Array.init config.Config.num_reader_particles (fun _ ->
        let loc =
          Common.jitter init_reader.Reader_state.loc
            ~sigma:params.Params.sensing.Location_sensing.sigma rng
        in
        {
          state = Reader_state.make ~loc ~heading:init_reader.Reader_state.heading;
          log_w = 0.;
        })
  in
  let shelf_tags, shelf_index = make_shelf_index world in
  {
    world;
    params;
    config;
    rng;
    substream;
    scratch = Scratch.create ();
    adaptive =
      config.Config.min_object_particles < config.Config.num_object_particles;
    budget_rungs = budget_ladder config;
    pre = Sensor_model.precompute params.Params.sensor ~n:config.Config.num_reader_particles;
    readers;
    reader_gen = 0;
    objects = Hashtbl.create 64;
    cache =
      Common.Sensor_cache.create ~threshold:Config.detection_threshold
        ~max_range:Config.max_sensing_range
        params.Params.sensor;
    shelf_tags;
    shelf_index;
    index =
      (if use_index then
         Some
           {
             regions = Dyn_index.create ~dummy:[||] ();
             pending = Bitset.create ();
             pending_box = None;
             last_insert_loc = None;
           }
       else None);
    compress;
    compress_queue = Queue.create ();
    evict_queue = Queue.create ();
    shelf_read = Hashtbl.create 8;
    idx_hits = Dyn_index.Hits.create ~dummy:[||];
    shelf_hits = Dyn_index.Hits.create ~dummy:(-1);
    scope_ids = [||];
    scope_len = 0;
    tmp_ids = [||];
    dirty = Bitset.create ();
    dirty_all = false;
    known_sorted = [||];
    known_len = 0;
    last_reported = None;
    epoch = -1;
    newly_seen = [];
    processed_last = 0;
    consecutive_degraded = 0;
    degraded_total = 0;
  }

let num_readers t = Array.length t.readers

let ensure_scope t n =
  if Array.length t.scope_ids < n then
    t.scope_ids <- Array.make (Int.max n (2 * Array.length t.scope_ids)) 0

let ensure_tmp t n =
  if Array.length t.tmp_ids < n then
    t.tmp_ids <- Array.make (Int.max n (2 * Array.length t.tmp_ids)) 0

(* Insertion into the sorted known-id array. Ids arrive once each (at
   discovery) and mostly in increasing order, so the shift is almost
   always empty; re-discoveries never reach here. *)
let note_known t id =
  if Array.length t.known_sorted < t.known_len + 1 then begin
    let bigger = Array.make (Int.max 8 (2 * Array.length t.known_sorted)) 0 in
    Array.blit t.known_sorted 0 bigger 0 t.known_len;
    t.known_sorted <- bigger
  end;
  let i = ref t.known_len in
  while !i > 0 && t.known_sorted.(!i - 1) > id do
    t.known_sorted.(!i) <- t.known_sorted.(!i - 1);
    decr i
  done;
  t.known_sorted.(!i) <- id;
  t.known_len <- t.known_len + 1

let reader_weights_into t w =
  for i = 0 to Array.length w - 1 do
    w.(i) <- t.readers.(i).log_w
  done;
  Rfid_prob.Stats.normalize_log_weights_in_place w

let reader_weights t =
  let w = Array.make (num_readers t) 0. in
  reader_weights_into t w;
  w

(* Draw a reader-particle index proportionally to current weights.
   Takes the drawing generator explicitly: per-object phases pass the
   object's keyed substream, filter-wide phases pass [t.rng]. *)
let sample_reader_idx rng rw = Rfid_prob.Rng.categorical rng rw

(* Refresh the sensor memo from the current reader poses — once per
   epoch, after the reader proposal, before the per-object pass. Writes
   go through the compare-then-write entry point: when consecutive
   epochs share every pose (duplicate, degraded-mode or
   stationary-reader streams), no slot is rewritten and the epoch
   counts as a reuse. *)
let refresh_memo t =
  let j = num_readers t in
  let changed = ref (Sensor_model.pre_size t.pre <> j) in
  Sensor_model.pre_resize t.pre j;
  for i = 0 to j - 1 do
    let s = t.readers.(i).state in
    let loc = s.Reader_state.loc in
    if
      Sensor_model.pre_set_pose_checked t.pre i ~x:loc.Vec3.x ~y:loc.Vec3.y
        ~z:loc.Vec3.z ~heading:s.Reader_state.heading
    then changed := true
  done;
  if not !changed then Obs.incr c_memo_reused 1

let decompress_into t rng rw store g =
  let n = t.config.Config.decompress_particles in
  Ps.resize store n;
  for i = 0 to n - 1 do
    let p = Vec3.of_array (Rfid_prob.Gaussian.sample g rng) in
    let p = if World.contains t.world p then p else World.clamp_to_shelves t.world p in
    let idx = sample_reader_idx rng rw in
    Ps.set_loc store i ~x:p.Vec3.x ~y:p.Vec3.y ~z:p.Vec3.z;
    Ps.set_reader store i idx;
    Ps.set_log_w store i 0.
  done

(* Inflation (ft) of the Case-2 probe box, absorbing reader-particle
   spread. *)
let case4_margin = 1.0

(* The probe/insertion box for the sensing region around a reader
   location: heading-independent square of side 2 * detection range,
   inflated by [case4_margin]. *)
let sensing_box t loc =
  let r = t.cache.Common.Sensor_cache.range +. case4_margin in
  Box2.of_center loc ~half_width:r ~half_height:r

(* Sort [a.(0) .. a.(n - 1)] ascending in place. The runs sorted here
   (one probe's shelf-tag hits, the read tags it missed) hold a handful
   of ids, so insertion sort suffices and allocates nothing. *)
let sort_prefix a n =
  for i = 1 to n - 1 do
    let v = a.(i) in
    let j = ref i in
    while !j > 0 && a.(!j - 1) > v do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- v
  done

(* Requires the memo to hold the current (freshly proposed) poses: both
   the batched location term and the per-tag accumulation evaluate
   against every pose in one call. Miss evidence is tempered by
   [Config.shelf_miss_weight]: it flows through the sensor model's soft
   boundary, where a fitted logistic deviates most from the true
   region. Tags are processed in a fixed order — probe hits by
   ascending id, then read-but-not-near tags by descending id — so the
   accumulated floats never depend on the index's hit order. *)
let weight_readers t reported =
  let sensing = t.params.Params.sensing in
  let j = num_readers t in
  let acc = Scratch.float_buf t.scratch ~slot:slot_reader_scratch j in
  let rx, ry, rz, _ = Sensor_model.pre_poses t.pre in
  Location_sensing.log_pdf_poses_into sensing ~reported ~rx ~ry ~rz ~n:j acc;
  let box = sensing_box t reported in
  Dyn_index.query_into t.shelf_index box t.shelf_hits;
  let nh = Dyn_index.Hits.length t.shelf_hits in
  (* Hits are positions in the id-sorted [shelf_tags]. *)
  ensure_tmp t nh;
  for h = 0 to nh - 1 do
    t.tmp_ids.(h) <- Dyn_index.Hits.get t.shelf_hits h
  done;
  sort_prefix t.tmp_ids nh;
  (* Shelf-tag saturation-cull accounting is recorded once at the end. *)
  let tag_calls = ref 0 in
  let tag_culled = ref 0 in
  for h = 0 to nh - 1 do
    let id, tag_loc = t.shelf_tags.(t.tmp_ids.(h)) in
    let read = Hashtbl.mem t.shelf_read id in
    tag_calls := !tag_calls + j;
    tag_culled :=
      !tag_culled
      + Sensor_model.pre_accumulate_tag t.pre ~tx:tag_loc.Vec3.x ~ty:tag_loc.Vec3.y
          ~tz:tag_loc.Vec3.z ~read ~miss_weight:Config.shelf_miss_weight acc
  done;
  (* A read shelf tag outside the probe box (possible with heavy
     location noise) still contributes evidence; find it by id. *)
  if Hashtbl.length t.shelf_read > 0 then begin
    let near = Scratch.bits t.scratch ~slot:bslot_near in
    Bitset.clear near;
    for h = 0 to nh - 1 do
      Bitset.add near (fst t.shelf_tags.(Dyn_index.Hits.get t.shelf_hits h))
    done;
    ensure_tmp t (Hashtbl.length t.shelf_read);
    let m = ref 0 in
    Hashtbl.iter
      (fun id () ->
        if not (Bitset.mem near id) then begin
          t.tmp_ids.(!m) <- id;
          incr m
        end)
      t.shelf_read;
    sort_prefix t.tmp_ids !m;
    for k = !m - 1 downto 0 do
      let id = t.tmp_ids.(k) in
      match World.shelf_tag_location t.world id with
      | tag_loc ->
          tag_calls := !tag_calls + j;
          tag_culled :=
            !tag_culled
            + Sensor_model.pre_accumulate_tag t.pre ~tx:tag_loc.Vec3.x
                ~ty:tag_loc.Vec3.y ~tz:tag_loc.Vec3.z ~read:true
                ~miss_weight:Config.shelf_miss_weight acc
      | exception Not_found -> ()
    done
  end;
  if !tag_culled > 0 then Obs.incr c_saturated !tag_culled;
  Obs.incr c_sensor_evals (!tag_calls - !tag_culled);
  Array.iteri (fun i (r : reader_particle) -> r.log_w <- r.log_w +. acc.(i)) t.readers;
  (* Centre to avoid drift to -inf over long streams. *)
  let m =
    Array.fold_left
      (fun acc (r : reader_particle) -> Float.max acc r.log_w)
      neg_infinity t.readers
  in
  if Float.is_finite m then
    Array.iter (fun (r : reader_particle) -> r.log_w <- r.log_w -. m) t.readers

let propose_readers t e reported =
  let motion = t.params.Params.motion in
  let delta =
    Common.proposal_delta t.config.Config.proposal ~motion
      ~last_reported:t.last_reported ~reported
  in
  let sigma =
    match t.config.Config.proposal_noise_override with
    | Some s -> s
    | None ->
        Common.proposal_sigma t.config.Config.proposal ~motion
          ~sensing:t.params.Params.sensing
  in
  Array.iter
    (fun r ->
      let loc =
        match t.config.Config.proposal with
        | Config.From_reported_location -> Common.jitter reported ~sigma t.rng
        | Config.From_velocity | Config.From_reported_displacement ->
            Common.jitter (Vec3.add r.state.Reader_state.loc delta) ~sigma t.rng
      in
      let heading =
        Common.propose_heading t.config.Config.heading_model ~motion ~epoch:e
          ~current:r.state.Reader_state.heading t.rng
      in
      r.state <- Reader_state.make ~loc ~heading)
    t.readers

(* Objects to process this epoch beyond those read now (Case 2): with an
   index, the union of object sets of past sensing boxes overlapping the
   current one; without, every known object. The result lands in the
   [scope] bitset (which already holds Case 1). *)
let add_case2_objects t reported scope =
  match t.index with
  | None -> Hashtbl.iter (fun id _ -> Bitset.add scope id) t.objects
  | Some idx ->
      let probe = sensing_box t reported in
      Dyn_index.query_into idx.regions probe t.idx_hits;
      for h = 0 to Dyn_index.Hits.length t.idx_hits - 1 do
        let ids = Dyn_index.Hits.get t.idx_hits h in
        for k = 0 to Array.length ids - 1 do
          Bitset.add scope (Array.unsafe_get ids k)
        done
      done

let refresh_pointers t rng rw (obj : obj_state) =
  if obj.reader_gen <> t.reader_gen then begin
    (match obj.belief with
    | Active store ->
        for i = 0 to Ps.length store - 1 do
          Ps.set_reader store i (sample_reader_idx rng rw)
        done
    | Compressed _ -> ());
    obj.reader_gen <- t.reader_gen
  end

let propose_and_weight_object t rng (obj : obj_state) ~read =
  match obj.belief with
  | Compressed _ -> ()
  | Active store ->
      let k = Ps.length store in
      (* The move-hypothesis transition (uniform over all shelves,
         probability alpha) is injected only on epochs that carry a
         reading of this tag: a hypothesis born on a miss-only epoch
         lands far from the reader, where misses are certain anyway,
         so nothing can ever refute it — and one such runaway
         particle drags the posterior mean by (warehouse size / K).
         Evidence-bearing epochs crush wrong move hypotheses
         immediately, which is all the diversity the model needs.
         [Object_model.sample_next] is inlined so a particle that
         stays put (the overwhelming majority) writes nothing. *)
      (if read then begin
         let move_prob = t.params.Params.objects.Object_model.move_prob in
         for i = 0 to k - 1 do
           if Rfid_prob.Rng.bernoulli rng ~p:move_prob then begin
             let l = World.sample_on_shelves t.world rng in
             Ps.set_loc store i ~x:l.Vec3.x ~y:l.Vec3.y ~z:l.Vec3.z
           end
         done
       end);
      (* Sensor terms for the whole store in one batched call (each
         particle against its own reader pointer's memoized pose). *)
      let culled = Sensor_model.pre_accumulate_store t.pre store ~read in
      if culled > 0 then Obs.incr c_saturated culled;
      Obs.incr c_sensor_evals (k - culled);
      let m = Ps.max_log_w store in
      if Float.is_finite m then Ps.shift_log_w store m;
      (* Per-object resampling, pointer-preserving (§IV-B). *)
      let w = Scratch.float_buf t.scratch ~slot:slot_obj_weights k in
      Ps.weights_into store w;
      let ess = Rfid_prob.Stats.effective_sample_size w in
      Obs.observe h_object_ess ess;
      Obs.observe h_object_budget (float_of_int k);
      let kf = float_of_int k in
      if ess < t.config.Config.resample_ratio *. kf then begin
        if ess >= t.config.Config.resample_ess_ratio *. kf then
          (* The classic gate fired but the ESS cap vetoed it: the
             weights carry over unresampled and the gather+swap (and
             any budget move) is skipped. Vacuous at the default cap of
             1.0, since ESS never exceeds k. *)
          Obs.incr c_resamples_skipped 1
        else begin
          Obs.incr c_obj_resamples 1;
          let scheme = t.config.Config.resample_scheme in
          let slab = Scratch.slab t.scratch in
          if not t.adaptive then begin
            let idx = Scratch.int_buf t.scratch ~slot:slot_resample_idx k in
            Common.resample_into scheme rng w ~n:k ~out:idx;
            Ps.gather ~src:store ~dst:slab idx ~n:k;
            Ps.swap store slab
          end
          else begin
            (* Budget moves ride on resample events only. Weighted
               per-axis moments give the spread for the rung rule and
               the jitter scale for growth; all O(k), touched only in
               adaptive mode. *)
            let wvar get =
              let mean = ref 0. in
              for i = 0 to k - 1 do
                mean := !mean +. (Array.unsafe_get w i *. get store i)
              done;
              let m = !mean in
              let v = ref 0. in
              for i = 0 to k - 1 do
                let d = get store i -. m in
                v := !v +. (Array.unsafe_get w i *. d *. d)
              done;
              !v
            in
            let vx = wvar Ps.unsafe_x in
            let vy = wvar Ps.unsafe_y in
            let vz = wvar Ps.unsafe_z in
            let m = next_budget t ~k ~spread:(sqrt (vx +. vy +. vz)) in
            if m <= k then begin
              (* Shrink (or hold): draw the target count directly over
                 the k weights — a full-CDF stride, unlike truncating a
                 k-sized systematic draw, whose prefix is biased. *)
              let idx = Scratch.int_buf t.scratch ~slot:slot_resample_idx m in
              Common.resample_into scheme rng w ~n:m ~out:idx;
              Ps.gather ~src:store ~dst:slab idx ~n:m;
              Ps.swap store slab
            end
            else begin
              let idx = Scratch.int_buf t.scratch ~slot:slot_resample_idx k in
              Common.resample_into scheme rng w ~n:k ~out:idx;
              Ps.gather ~src:store ~dst:slab idx ~n:k;
              Ps.swap store slab;
              (* Jitter at a quarter of the posterior's per-axis std:
                 enough to de-duplicate replicas, well inside the
                 spread that triggered the growth. *)
              Ps.resize_up store ~n:m ~rng ~sigma_x:(0.25 *. sqrt vx)
                ~sigma_y:(0.25 *. sqrt vy) ~sigma_z:(0.25 *. sqrt vz)
            end
          end
        end
      end

(* Reader resampling instrumented to favor readers associated with good
   object particles: each in-scope object contributes, per reader, the
   mean normalized weight of its particles pointing there. The scope is
   read from the dense ascending [scope_ids] buffer filled by [step] —
   the same visit order the former [Int_set.iter] produced. *)
let maybe_resample_readers t =
  let j = num_readers t in
  let rw = Scratch.float_buf t.scratch ~slot:slot_reader_weights j in
  reader_weights_into t rw;
  let ess = Rfid_prob.Stats.effective_sample_size rw in
  Obs.set g_reader_ess ess;
  let jf = float_of_int j in
  if ess >= t.config.Config.resample_ratio *. jf then ()
  else if ess >= t.config.Config.resample_ess_ratio *. jf then
    (* Same ESS cap as the per-object resample: the classic gate would
       fire, the cap vetoes it, weights carry over. *)
    Obs.incr c_resamples_skipped 1
  else begin
    Obs.incr c_reader_resamples 1;
    (* Everything transient here lives in the scratch arena:
       per-reader mean object weights are recomputed from
       sum/count (bit-identical to materializing them) and the combined
       log weights are normalized in place. *)
    let adj = Scratch.float_buf t.scratch ~slot:slot_reader_adj j in
    Array.fill adj 0 j 0.;
    let consider (obj : obj_state) =
      match obj.belief with
      | Compressed _ -> ()
      | Active store when obj.reader_gen = t.reader_gen ->
          let k = Ps.length store in
          let w = Scratch.float_buf t.scratch ~slot:slot_obj_weights k in
          Ps.weights_into store w;
          let sum = Scratch.float_buf t.scratch ~slot:slot_reader_scratch j in
          let cnt = Scratch.int_buf t.scratch ~slot:slot_reader_cnt j in
          Array.fill sum 0 j 0.;
          Array.fill cnt 0 j 0;
          for i = 0 to k - 1 do
            let r = Ps.reader store i in
            sum.(r) <- sum.(r) +. w.(i);
            cnt.(r) <- cnt.(r) + 1
          done;
          let avg =
            let s = ref 0. and n = ref 0 in
            for r = 0 to j - 1 do
              if cnt.(r) <> 0 then begin
                s := !s +. (sum.(r) /. float_of_int cnt.(r));
                incr n
              end
            done;
            if !n = 0 then 0. else !s /. float_of_int !n
          in
          if avg > 0. then
            for r = 0 to j - 1 do
              if cnt.(r) <> 0 then
                adj.(r) <-
                  adj.(r) +. log (Float.max 1e-12 (sum.(r) /. float_of_int cnt.(r) /. avg))
            done
      | Active _ -> ()
    in
    for k = 0 to t.scope_len - 1 do
      match Hashtbl.find_opt t.objects t.scope_ids.(k) with
      | Some o -> consider o
      | None -> ()
    done;
    let combined = Scratch.float_buf t.scratch ~slot:slot_reader_scratch j in
    for i = 0 to j - 1 do
      combined.(i) <- log (Float.max 1e-300 rw.(i)) +. adj.(i)
    done;
    Rfid_prob.Stats.normalize_log_weights_in_place combined;
    let idx = Scratch.int_buf t.scratch ~slot:slot_resample_idx j in
    Common.resample_into t.config.Config.resample_scheme t.rng combined ~n:j ~out:idx;
    let old = t.readers in
    t.readers <-
      Array.map (fun i -> { state = old.(i).state; log_w = 0. }) idx;
    (* Pointer remap: copies of a surviving reader are tracked so object
       particles can follow one of them; orphans re-draw uniformly. *)
    let copies = Array.make j [] in
    Array.iteri (fun new_i old_i -> copies.(old_i) <- new_i :: copies.(old_i)) idx;
    t.reader_gen <- t.reader_gen + 1;
    let remap (obj : obj_state) =
      match obj.belief with
      | Compressed _ -> ()
      | Active store when obj.reader_gen = t.reader_gen - 1 ->
          for i = 0 to Ps.length store - 1 do
            match copies.(Ps.reader store i) with
            | [] -> Ps.set_reader store i (Rfid_prob.Rng.int t.rng j)
            | [ one ] -> Ps.set_reader store i one
            | many ->
                let k = Rfid_prob.Rng.int t.rng (List.length many) in
                Ps.set_reader store i (List.nth many k)
          done;
          obj.reader_gen <- t.reader_gen
      | Active _ -> ()
    in
    for k = 0 to t.scope_len - 1 do
      match Hashtbl.find_opt t.objects t.scope_ids.(k) with
      | Some o -> remap o
      | None -> ()
    done
  end

(* Index insertions are consolidated until the reader has moved this
   far (ft), keeping the sensing-region index compact. *)
let index_min_displacement = 0.5

let update_index t reported scope =
  match t.index with
  | None -> ()
  | Some idx ->
      let box = sensing_box t reported in
      (* Delta update: the pending set accumulates the processed scope
         by word-wise OR — O(scope words), never a set rebuild. *)
      Bitset.union_into ~into:idx.pending scope;
      idx.pending_box <-
        Some (match idx.pending_box with None -> box | Some b -> Box2.union b box);
      let should_flush =
        match idx.last_insert_loc with
        | None -> true
        | Some prev -> Vec3.dist_xy prev reported >= index_min_displacement
      in
      if should_flush then begin
        (match idx.pending_box with
        | Some b when not (Bitset.is_empty idx.pending) ->
            (* Fig. 4(b): a box's object set is the objects with at
               least one particle inside it — not the whole processed
               scope, which would snowball transitively through future
               Case-2 probes until every box contained every object. *)
            let has_particle_in id =
              match Hashtbl.find_opt t.objects id with
              | None -> false
              | Some { belief = Compressed g; _ } ->
                  Box2.contains_point b (Vec3.of_array (Rfid_prob.Gaussian.mean g))
              | Some { belief = Active store; _ } ->
                  let n = Ps.length store in
                  let rec scan i =
                    i < n
                    && (Box2.contains_xy b ~x:(Ps.x store i) ~y:(Ps.y store i)
                       || scan (i + 1))
                  in
                  scan 0
            in
            ensure_tmp t (Bitset.cardinal idx.pending);
            let m = ref 0 in
            Bitset.iter idx.pending (fun id ->
                if has_particle_in id then begin
                  t.tmp_ids.(!m) <- id;
                  incr m
                end);
            (* The stored array is a fresh exact-size copy (ascending,
               as the bitset iterates): allocation happens on flush
               only, and the entry must outlive the scratch buffer. *)
            if !m > 0 then
              ignore (Dyn_index.insert idx.regions b (Array.sub t.tmp_ids 0 !m))
        | Some _ | None -> ());
        Bitset.clear idx.pending;
        idx.pending_box <- None;
        idx.last_insert_loc <- Some reported
      end

let compress_object t (obj : obj_state) =
  match obj.belief with
  | Compressed _ -> ()
  | Active store when Ps.length store = 0 -> ()
  | Active store ->
      let w = Ps.normalized_weights store in
      Obs.incr c_compressions 1;
      obj.belief <- Compressed (Ps.fit_gaussian ~w store);
      (* The moment-matched Gaussian carries the same mean/cov the
         particle fit reported, but the representation switch is
         flagged anyway: compression can fire on objects outside the
         current scope, and the change feed promises to cover every
         belief mutation. *)
      Bitset.add t.dirty obj.obj_id

let run_compression t e =
  if t.compress then begin
    let rec drain () =
      match Queue.peek_opt t.compress_queue with
      | Some (deadline, obj_id) when deadline <= e ->
          ignore (Queue.pop t.compress_queue);
          (match Hashtbl.find_opt t.objects obj_id with
          | Some obj when e - obj.last_read >= t.config.Config.compress_after ->
              compress_object t obj
          | Some _ | None -> ());
          drain ()
      | Some _ | None -> ()
    in
    drain ()
  end

(* Lazy staleness sweep: each read enqueues (read epoch + horizon + 1,
   id); draining every entry whose deadline has passed marks exactly
   the objects with [e - last_read > out_of_scope_after] out of scope —
   an entry made stale by a later re-read is skipped, because that read
   enqueued a later deadline of its own. Equivalent to testing every
   tracked object per epoch, but touches only fired candidates. *)
let drain_evictions t e =
  let horizon = Config.out_of_scope_after in
  let rec go () =
    match Queue.peek_opt t.evict_queue with
    | Some (fire, id) when fire <= e ->
        ignore (Queue.pop t.evict_queue);
        (match Hashtbl.find_opt t.objects id with
        | Some obj when obj.last_read + horizon + 1 <= fire ->
            if obj.in_scope then begin
              obj.in_scope <- false;
              Obs.incr c_evictions 1
            end
        | Some _ | None -> ());
        go ()
    | Some _ | None -> ()
  in
  go ()

let init_fresh t rng rw (obj : obj_state) store n =
  Ps.resize store n;
  Common.fill_fresh_particles t.cache ~overestimate:Config.init_overestimate
    ~world:t.world ~pre:t.pre ~rw ~rng ~store ~step:1;
  obj.reader_gen <- t.reader_gen

(* Evidence-driven initialization of an object read this epoch
   (§IV-A): a new or far re-detected object gets fresh particles, a
   compressed belief is decompressed, and a near re-detection keeps
   half its particles and moves half to the new location. *)
let init_on_read t rng rw (obj : obj_state) ~reported =
  match obj.belief with
  | Active store when Ps.length store = 0 ->
      init_fresh t rng rw obj store t.config.Config.num_object_particles
  | Compressed g ->
      Obs.incr c_decompressions 1;
      let store = Ps.create ~n:0 in
      decompress_into t rng rw store g;
      obj.belief <- Active store;
      obj.reader_gen <- t.reader_gen
  | Active store ->
      let d = Vec3.dist reported obj.last_read_reader in
      if d >= Config.reinit_far then init_fresh t rng rw obj store (Ps.length store)
      else if d >= Config.reinit_near then begin
        refresh_pointers t rng rw obj;
        Common.fill_fresh_particles t.cache
          ~overestimate:Config.init_overestimate ~world:t.world ~pre:t.pre ~rw
          ~rng ~store ~step:2
      end

let step t (obs : Types.observation) =
  if obs.Types.o_epoch <= t.epoch then
    invalid_arg "Factored_filter.step: observations out of epoch order";
  let e = obs.Types.o_epoch in
  let reported = obs.Types.o_reported_loc in
  t.newly_seen <- [];
  Hashtbl.clear t.shelf_read;
  let case1 = Scratch.bits t.scratch ~slot:bslot_case1 in
  Bitset.clear case1;
  List.iter
    (fun tag ->
      match tag with
      | Types.Object_tag i -> Bitset.add case1 i
      | Types.Shelf_tag i -> Hashtbl.replace t.shelf_read i ())
    obs.Types.o_read_tags;
  (* 1–2. Reader proposal and weighting (Eq. 5 reader factor). The
     pose memo is refreshed between the two: [weight_readers] and the
     per-object pass both evaluate sensor terms through it. *)
  let t_pose = Obs.start sp_pose_memo in
  propose_readers t e reported;
  refresh_memo t;
  Obs.stop sp_pose_memo t_pose;
  let t_weight = Obs.start sp_weighting in
  weight_readers t reported;
  let rw = Scratch.float_buf t.scratch ~slot:slot_reader_weights (num_readers t) in
  reader_weights_into t rw;
  (* 3. Scope: Case 1 ∪ Case 2, as a scratch bitset, then densified
     into the ascending [scope_ids] stack every later phase walks. *)
  let scope = Scratch.bits t.scratch ~slot:bslot_scope in
  Bitset.clear scope;
  Bitset.union_into ~into:scope case1;
  add_case2_objects t reported scope;
  t.processed_last <- Bitset.cardinal scope;
  ensure_scope t t.processed_last;
  t.scope_len <- Bitset.fill_into scope t.scope_ids;
  (* Every object the per-object pass may touch is exactly the scope;
     feed it to the change set by word-wise OR — O(scope words). *)
  Bitset.union_into ~into:t.dirty scope;
  (* 4. Discovery: newly read objects get a placeholder state, which
     the per-object pass initializes from evidence. The eviction queue
     is drained first, so "seen again after falling out of scope" is
     judged against deadlines that have actually fired. *)
  drain_evictions t e;
  Bitset.iter case1 (fun id ->
      match Hashtbl.find_opt t.objects id with
      | None ->
          Hashtbl.replace t.objects id
            {
              obj_id = id;
              belief = Active (Ps.create ~n:0);
              reader_gen = t.reader_gen;
              last_read = e;
              last_read_reader = reported;
              in_scope = true;
            };
          note_known t id;
          t.newly_seen <- id :: t.newly_seen
      | Some obj -> if not obj.in_scope then t.newly_seen <- id :: t.newly_seen);
  (* 5. Per-object update (§IV-B's conditional independence given the
     reader particles), in ascending id order: initialization on a
     read, pointer refresh, proposal, weighting and per-object
     resampling. Each object draws from its own substream keyed by
     (object id, epoch), re-derived into the arena's generator so no
     generator is allocated; an object's draws therefore do not depend
     on which objects were updated before it. The update reads and
     writes only this object's state (plus the scratch arena), and the
     reader array, the memo and [rw] stay read-only until the pass
     completes. *)
  let rng = Scratch.rng t.scratch in
  let hits = ref 0 in
  for k = 0 to t.scope_len - 1 do
    let id = t.scope_ids.(k) in
    match Hashtbl.find_opt t.objects id with
    | None -> ()
    | Some obj -> (
        let read = Bitset.mem case1 id in
        Rfid_prob.Rng.for_key_into t.substream ~key:(Rfid_prob.Rng.key_pair id e) rng;
        if read then init_on_read t rng rw obj ~reported;
        refresh_pointers t rng rw obj;
        propose_and_weight_object t rng obj ~read;
        match obj.belief with
        | Active store -> hits := !hits + Ps.length store
        | Compressed _ -> ())
  done;
  Obs.stop sp_weighting t_weight;
  Obs.set g_scope_objects (float_of_int t.processed_last);
  Obs.set g_particles_in_scope (float_of_int !hits);
  (* 6. Reader resampling (rare; ESS-triggered). *)
  let t_res = Obs.start sp_resampling in
  maybe_resample_readers t;
  Obs.stop sp_resampling t_res;
  (* 7. Spatial index bookkeeping. *)
  let t_comp = Obs.start sp_compression in
  update_index t reported scope;
  (* 8–9. Compression and scope bookkeeping: each read refreshes the
     object's staleness deadline and (with compression on) its
     compression deadline, in ascending id order as before. *)
  Bitset.iter case1 (fun id ->
      match Hashtbl.find_opt t.objects id with
      | None -> ()
      | Some obj ->
          obj.last_read <- e;
          obj.last_read_reader <- reported;
          obj.in_scope <- true;
          Queue.push (e + Config.out_of_scope_after + 1, id) t.evict_queue;
          if t.compress then
            Queue.push (e + t.config.Config.compress_after, id) t.compress_queue);
  run_compression t e;
  Obs.stop sp_compression t_comp;
  Obs.set g_index_boxes
    (float_of_int (match t.index with None -> 0 | Some idx -> Dyn_index.size idx.regions));
  t.last_reported <- Some reported;
  t.consecutive_degraded <- 0;
  t.epoch <- e

(* Degraded epoch (missing/rejected location fix): dead-reckon the
   reader particles from the motion model with inflated noise, leave
   weights alone (no evidence), and — once the outage outlasts
   [degraded_widen_after] — diffuse object beliefs so the posterior
   admits that objects may have moved unseen. Per-object randomness is
   keyed by (object id, epoch) exactly as in [step], so the result is
   independent of hash-table iteration order. *)
let dead_reckon ?(shelf_tags = []) t ~epoch:e =
  if e <= t.epoch then
    invalid_arg "Factored_filter.dead_reckon: observations out of epoch order";
  t.newly_seen <- [];
  t.processed_last <- 0;
  let motion = t.params.Params.motion in
  let scale = Config.degraded_noise_scale in
  let s = motion.Motion_model.sigma in
  let sigma = Vec3.make (s.Vec3.x *. scale) (s.Vec3.y *. scale) (s.Vec3.z *. scale) in
  Array.iter
    (fun r ->
      let loc =
        Common.jitter (Vec3.add r.state.Reader_state.loc motion.Motion_model.velocity)
          ~sigma t.rng
      in
      let heading =
        Common.propose_heading t.config.Config.heading_model ~motion ~epoch:e
          ~current:r.state.Reader_state.heading t.rng
      in
      r.state <- Reader_state.make ~loc ~heading)
    t.readers;
  (* Reader localization from shelf tags read this epoch: their
     positions are known exactly, so even without a trusted fix they
     re-weight the dead-reckoned reader particles (read terms are never
     saturation-culled). Ids arrive deduplicated and ascending from the
     engine. *)
  if shelf_tags <> [] then begin
    refresh_memo t;
    let j = num_readers t in
    let acc = Scratch.float_buf t.scratch ~slot:slot_reader_scratch j in
    Array.fill acc 0 j 0.;
    let calls = ref 0 in
    List.iter
      (fun id ->
        match World.shelf_tag_location t.world id with
        | tag_loc ->
            calls := !calls + j;
            ignore
              (Sensor_model.pre_accumulate_tag t.pre ~tx:tag_loc.Vec3.x
                 ~ty:tag_loc.Vec3.y ~tz:tag_loc.Vec3.z ~read:true
                 ~miss_weight:Config.shelf_miss_weight acc)
        | exception Not_found -> ())
      shelf_tags;
    Obs.incr c_sensor_evals !calls;
    Array.iteri (fun i (r : reader_particle) -> r.log_w <- r.log_w +. acc.(i)) t.readers;
    let m =
      Array.fold_left
        (fun acc (r : reader_particle) -> Float.max acc r.log_w)
        neg_infinity t.readers
    in
    if Float.is_finite m then
      Array.iter (fun (r : reader_particle) -> r.log_w <- r.log_w -. m) t.readers
  end;
  t.consecutive_degraded <- t.consecutive_degraded + 1;
  t.degraded_total <- t.degraded_total + 1;
  let w = Config.degraded_widen_sigma in
  if t.consecutive_degraded >= t.config.Config.degraded_widen_after then begin
    t.dirty_all <- true;
    let wsigma = Vec3.make w w 0. in
    (* Widening visits every tracked object by evidence semantics (the
       whole posterior decays); the per-object generator is re-keyed
       into the arena's scratch RNG instead of allocating one per
       object — identical derived state, identical draws. *)
    let krng = Scratch.rng t.scratch in
    Hashtbl.iter
      (fun id obj ->
        Rfid_prob.Rng.for_key_into t.substream ~key:(Rfid_prob.Rng.key_pair id e) krng;
        match obj.belief with
        | Active store ->
            for i = 0 to Ps.length store - 1 do
              let p = Vec3.make (Ps.x store i) (Ps.y store i) (Ps.z store i) in
              let l = Common.jitter p ~sigma:wsigma krng in
              let l =
                if World.contains t.world l then l else World.clamp_to_shelves t.world l
              in
              Ps.set_loc store i ~x:l.Vec3.x ~y:l.Vec3.y ~z:l.Vec3.z
            done
        | Compressed g ->
            let cov = Rfid_prob.Gaussian.cov g in
            let cov = Array.map Array.copy cov in
            cov.(0).(0) <- cov.(0).(0) +. (w *. w);
            cov.(1).(1) <- cov.(1).(1) +. (w *. w);
            obj.belief <-
              Compressed (Rfid_prob.Gaussian.create ~mean:(Rfid_prob.Gaussian.mean g) ~cov))
      t.objects
  end;
  run_compression t e;
  t.epoch <- e

let degraded_epochs t = t.degraded_total

let estimate t obj_id =
  match Hashtbl.find_opt t.objects obj_id with
  | None -> None
  | Some obj -> (
      match obj.belief with
      | Compressed g ->
          Some (Vec3.of_array (Rfid_prob.Gaussian.mean g), Rfid_prob.Gaussian.cov g)
      | Active store ->
          let w = Ps.normalized_weights store in
          let g = Ps.fit_gaussian ~w store in
          Some (Vec3.of_array (Rfid_prob.Gaussian.mean g), Rfid_prob.Gaussian.cov g))

let reader_estimate t =
  let rw = reader_weights t in
  let acc = ref Vec3.zero in
  Array.iteri
    (fun i r -> acc := Vec3.add !acc (Vec3.scale rw.(i) r.state.Reader_state.loc))
    t.readers;
  !acc

let newly_seen t = t.newly_seen

let known_objects t =
  let out = ref [] in
  for i = t.known_len - 1 downto 0 do
    out := t.known_sorted.(i) :: !out
  done;
  !out

let iter_known t f =
  for i = 0 to t.known_len - 1 do
    f t.known_sorted.(i)
  done

let num_known t = t.known_len
let changes_dirty_all t = t.dirty_all
let iter_dirty t f = if not t.dirty_all then Bitset.iter t.dirty f

let clear_changes t =
  Bitset.clear t.dirty;
  t.dirty_all <- false

let epoch t = t.epoch
let objects_processed_last_step t = t.processed_last

let is_compressed t obj_id =
  match Hashtbl.find_opt t.objects obj_id with
  | Some { belief = Compressed _; _ } -> true
  | Some { belief = Active _; _ } | None -> false

let num_index_boxes t = match t.index with None -> 0 | Some idx -> Dyn_index.size idx.regions

let iter_reader_particles t f =
  let rw = reader_weights t in
  Array.iteri (fun i r -> f r.state rw.(i)) t.readers

(* ------------------------------------------------------------------ *)
(* Checkpointing: the complete dynamic state as plain data. Static
   structure (world geometry, params, sensor cache, shelf-tag index,
   the scratch arena) is rebuilt by [restore] from the same creation
   inputs; the sensing-region index is rebuilt by re-inserting its
   recorded entries in the recorded order — hits are consumed as sets,
   so neither that order nor the grid layout is observable. The
   particle slabs are serialized to the same logical (loc, reader
   pointer, log weight) tuples as before the SoA layout, and index
   entries / pending sets to the same ascending id lists as before the
   bitset layout, so snapshots stay layout-independent. The
   eviction queue and the [in_scope] flags are not serialized: both are
   derived from [last_read] on restore (each object re-enqueues its
   deadline and is marked in scope; already-stale deadlines fire on the
   next step, before any newly-seen decision reads the flag). *)

type belief_snapshot =
  | Snap_active of (Vec3.t * int * float) array  (* loc, reader_idx, log_w *)
  | Snap_compressed of float array * Rfid_prob.Linalg.mat  (* mean, cov *)

type obj_snapshot = {
  so_id : int;
  so_belief : belief_snapshot;
  so_reader_gen : int;
  so_last_read : int;
  so_last_read_reader : Vec3.t;
}

type index_snapshot = {
  si_entries : (Box2.t * int list) list;
  si_pending_objs : int list;
  si_pending_box : Box2.t option;
  si_last_insert_loc : Vec3.t option;
}

type snapshot = {
  fs_rng : int64;
  fs_substream : int64;
  fs_reader_gen : int;
  fs_readers : (Reader_state.t * float) array;
  fs_objects : obj_snapshot list;  (* sorted by id *)
  fs_index : index_snapshot option;
  fs_compress_queue : (int * int) list;
  fs_last_reported : Vec3.t option;
  fs_epoch : int;
  fs_newly_seen : int list;
  fs_processed_last : int;
  fs_consecutive_degraded : int;
  fs_degraded_total : int;
}

let snapshot t =
  let snap_belief = function
    | Active store ->
        Snap_active
          (Array.init (Ps.length store) (fun i ->
               ( Vec3.make (Ps.x store i) (Ps.y store i) (Ps.z store i),
                 Ps.reader store i,
                 Ps.log_w store i )))
    | Compressed g ->
        Snap_compressed
          (Rfid_prob.Gaussian.mean g, Array.map Array.copy (Rfid_prob.Gaussian.cov g))
  in
  let objects =
    Hashtbl.fold
      (fun id obj acc ->
        {
          so_id = id;
          so_belief = snap_belief obj.belief;
          so_reader_gen = obj.reader_gen;
          so_last_read = obj.last_read;
          so_last_read_reader = obj.last_read_reader;
        }
        :: acc)
      t.objects []
    |> List.sort (fun a b -> Int.compare a.so_id b.so_id)
  in
  let index =
    Option.map
      (fun idx ->
        let entries = ref [] in
        Dyn_index.iter idx.regions (fun _ box ids ->
            entries := (box, Array.to_list ids) :: !entries);
        {
          si_entries = List.rev !entries;
          si_pending_objs = Bitset.elements idx.pending;
          si_pending_box = idx.pending_box;
          si_last_insert_loc = idx.last_insert_loc;
        })
      t.index
  in
  {
    fs_rng = Rfid_prob.Rng.state t.rng;
    fs_substream = Rfid_prob.Rng.state t.substream;
    fs_reader_gen = t.reader_gen;
    fs_readers = Array.map (fun r -> (r.state, r.log_w)) t.readers;
    fs_objects = objects;
    fs_index = index;
    fs_compress_queue = List.of_seq (Queue.to_seq t.compress_queue);
    fs_last_reported = t.last_reported;
    fs_epoch = t.epoch;
    fs_newly_seen = t.newly_seen;
    fs_processed_last = t.processed_last;
    fs_consecutive_degraded = t.consecutive_degraded;
    fs_degraded_total = t.degraded_total;
  }

let snapshot_epoch s = s.fs_epoch

let restore ~world ~params ~config s =
  let use_index, compress = features config in
  (match (use_index, s.fs_index) with
  | true, None | false, Some _ ->
      invalid_arg
        "Factored_filter.restore: snapshot variant disagrees with config.variant \
         on the spatial index"
  | true, Some _ | false, None -> ());
  let restore_belief = function
    | Snap_active parts ->
        let store = Ps.create ~n:(Array.length parts) in
        Array.iteri
          (fun i (loc, reader_idx, log_w) ->
            Ps.set_loc store i ~x:loc.Vec3.x ~y:loc.Vec3.y ~z:loc.Vec3.z;
            Ps.set_reader store i reader_idx;
            Ps.set_log_w store i log_w)
          parts;
        Active store
    | Snap_compressed (mean, cov) ->
        Compressed (Rfid_prob.Gaussian.create ~mean ~cov)
  in
  let objects = Hashtbl.create 64 in
  List.iter
    (fun o ->
      Hashtbl.replace objects o.so_id
        {
          obj_id = o.so_id;
          belief = restore_belief o.so_belief;
          reader_gen = o.so_reader_gen;
          last_read = o.so_last_read;
          last_read_reader = o.so_last_read_reader;
          in_scope = true;
        })
    s.fs_objects;
  let index =
    Option.map
      (fun (si : index_snapshot) ->
        let regions = Dyn_index.create ~dummy:[||] () in
        List.iter
          (fun (box, ids) -> ignore (Dyn_index.insert regions box (Array.of_list ids)))
          si.si_entries;
        let pending = Bitset.create () in
        List.iter (fun id -> Bitset.add pending id) si.si_pending_objs;
        {
          regions;
          pending;
          pending_box = si.si_pending_box;
          last_insert_loc = si.si_last_insert_loc;
        })
      s.fs_index
  in
  let shelf_tags, shelf_index = make_shelf_index world in
  let compress_queue = Queue.create () in
  List.iter (fun item -> Queue.push item compress_queue) s.fs_compress_queue;
  (* Re-derive the eviction queue: one deadline per object from its
     last read, pushed in deadline order so the lazy drain stays a
     head-of-queue scan. *)
  let evict_queue = Queue.create () in
  let horizon = Config.out_of_scope_after in
  List.map (fun (o : obj_snapshot) -> (o.so_last_read + horizon + 1, o.so_id)) s.fs_objects
  |> List.sort compare
  |> List.iter (fun item -> Queue.push item evict_queue);
  {
    world;
    params;
    config;
    rng = Rfid_prob.Rng.of_state s.fs_rng;
    substream = Rfid_prob.Rng.of_state s.fs_substream;
    scratch = Scratch.create ();
    adaptive =
      config.Config.min_object_particles < config.Config.num_object_particles;
    budget_rungs = budget_ladder config;
    pre = Sensor_model.precompute params.Params.sensor ~n:config.Config.num_reader_particles;
    readers = Array.map (fun (state, log_w) -> { state; log_w }) s.fs_readers;
    reader_gen = s.fs_reader_gen;
    objects;
    cache =
      Common.Sensor_cache.create ~threshold:Config.detection_threshold
        ~max_range:Config.max_sensing_range
        params.Params.sensor;
    shelf_tags;
    shelf_index;
    index;
    compress;
    compress_queue;
    evict_queue;
    shelf_read = Hashtbl.create 8;
    idx_hits = Dyn_index.Hits.create ~dummy:[||];
    shelf_hits = Dyn_index.Hits.create ~dummy:(-1);
    scope_ids = [||];
    scope_len = 0;
    tmp_ids = [||];
    dirty = Bitset.create ();
    (* A restored consumer has no valid cache to patch; everything is
       changed as far as the feed is concerned. *)
    dirty_all = true;
    known_sorted =
      Array.of_list (List.map (fun (o : obj_snapshot) -> o.so_id) s.fs_objects);
    known_len = List.length s.fs_objects;
    last_reported = s.fs_last_reported;
    epoch = s.fs_epoch;
    newly_seen = s.fs_newly_seen;
    processed_last = s.fs_processed_last;
    consecutive_degraded = s.fs_consecutive_degraded;
    degraded_total = s.fs_degraded_total;
  }

let iter_object_particles t obj_id f =
  match Hashtbl.find_opt t.objects obj_id with
  | None | Some { belief = Compressed _; _ } -> ()
  | Some { belief = Active store; _ } ->
      let w = Ps.normalized_weights store in
      for i = 0 to Ps.length store - 1 do
        f
          (Vec3.make (Ps.x store i) (Ps.y store i) (Ps.z store i))
          w.(i)
          t.readers.(Ps.reader store i).state
      done
