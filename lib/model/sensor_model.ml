open Rfid_geom

type t = { a0 : float; a1 : float; a2 : float; b1 : float; b2 : float }

(* sigmoid(3 - 0.4 d - 0.25 d^2 - 1.2 th - 1.5 th^2):
   ~95% at contact, 50% near d = 2.7 ft head-on, and the half-power
   angle shrinks with distance — a cone-like region. *)
let default = { a0 = 3.0; a1 = -0.4; a2 = -0.25; b1 = -1.2; b2 = -1.5 }

let features ~d ~theta =
  let theta = Float.abs theta in
  [| 1.; d; d *. d; theta; theta *. theta |]

let of_coef = function
  | [| a0; a1; a2; b1; b2 |] -> { a0; a1; a2; b1; b2 }
  | _ -> invalid_arg "Sensor_model.of_coef: expected 5 coefficients"

let to_coef { a0; a1; a2; b1; b2 } = [| a0; a1; a2; b1; b2 |]

let logit t ~d ~theta =
  let theta = Float.abs theta in
  t.a0 +. (t.a1 *. d) +. (t.a2 *. d *. d) +. (t.b1 *. theta) +. (t.b2 *. theta *. theta)

let read_prob_at t ~d ~theta = Rfid_prob.Logistic.sigmoid (logit t ~d ~theta)

(* Wrap an angle into (-pi, pi]. *)
let wrap a =
  let two_pi = 2. *. Float.pi in
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a

let geometry ~reader_loc ~reader_heading ~tag_loc =
  let delta = Vec3.sub tag_loc reader_loc in
  let d = Vec3.norm delta in
  let theta =
    if delta.Vec3.x = 0. && delta.Vec3.y = 0. then 0.
    else Float.abs (wrap (Vec3.xy_angle delta -. reader_heading))
  in
  (d, theta)

let read_prob t ~reader_loc ~reader_heading ~tag_loc =
  let d, theta = geometry ~reader_loc ~reader_heading ~tag_loc in
  read_prob_at t ~d ~theta

let log_prob t ~reader_loc ~reader_heading ~tag_loc ~read =
  let d, theta = geometry ~reader_loc ~reader_heading ~tag_loc in
  let z = logit t ~d ~theta in
  if read then Rfid_prob.Logistic.log_sigmoid z else Rfid_prob.Logistic.log_sigmoid (-.z)

(* Exact saturation culling (DESIGN.md section 9). The miss term is
   [log_sigmoid (-.logit)]; once the logit falls below
   [Logistic.exp_underflow], that term is exactly -0.0 in IEEE-754
   double, and accumulating it is a bitwise no-op — so any particle
   provably past the distance where the logit is that low can be
   skipped without changing a single output bit.

   [saturation_radius] returns the smallest radius r such that for
   every computed distance d > r (and every angle the kernels can
   produce, |theta| <= 3.1416 — slightly over pi to absorb wrap
   rounding), the kernels' float evaluation of the logit is at or
   below [exp_underflow + margin], where the ~0.87 margin between
   -746 and the true underflow cutoff (~-745.134) absorbs every
   rounding effect. Concretely, with q(d) = a2 d^2 + a1 d + c and
   c = a0 + max_theta(b1 th + b2 th^2) - exp_underflow, r is the
   larger root of q (q < 0 beyond it when a2 < 0). The derivation
   needs a2 < 0 (the logit must eventually decrease in distance);
   whenever the closed form does not apply, or the coefficients are
   scaled so wildly that float evaluation error near the radius could
   eat the margin, the function returns [infinity] — culling simply
   disables and the kernels run everything, which is always correct.

   Float-safety envelope: the kernel evaluates the logit as a
   left-to-right sum whose total rounding error is bounded by a few
   ulps of the largest intermediate magnitude. Requiring
   |a0| <= 1e11, |b1| <= 1e10, |b2| <= 1e10, |a1| r <= 1e12 and
   |a2| r^2 <= 1e12 caps that magnitude near the radius at ~1e12, so
   the error there is below ~1e-2 — far under the margin. Beyond the
   radius (culling is further capped at d <= 1e8, so no intermediate
   can overflow to infinity and produce a NaN via inf - inf), the
   real slack -q(d) grows at least as fast as the evaluation error:
   writing d = lambda r, the error grows like 1e-3 lambda^2 while the
   slack grows like |a2| r^2 (lambda - 1)^2 with |a2| r^2 >= O(1)
   whenever the quadratic term matters, so the bound holds for all
   culled distances, not just at r. A final point check verifies the
   computed logit bound at r is comfortably under the cutoff. *)

let sat_theta_bound = 3.1416
let sat_d_max = 1e8
let sat_d2_max = 1e16  (* sat_d_max^2: cull only below it (no overflow/NaN) *)

let saturation_radius t =
  let { a0; a1; a2; b1; b2 } = t in
  let finite = Float.is_finite in
  if
    not (finite a0 && finite a1 && finite a2 && finite b1 && finite b2)
    || not (a2 < 0.)
    || Float.abs a0 > 1e11
    || Float.abs b1 > 1e10
    || Float.abs b2 > 1e10
  then infinity
  else begin
    (* Largest value of b1 th + b2 th^2 over [0, sat_theta_bound]:
       endpoints plus the interior vertex when b2 < 0 puts one there. *)
    let th_term th = (b1 *. th) +. (b2 *. th *. th) in
    let m_theta =
      let m = Float.max (th_term 0.) (th_term sat_theta_bound) in
      if b2 < 0. then begin
        let v = -.b1 /. (2. *. b2) in
        if v > 0. && v < sat_theta_bound then Float.max m (th_term v) else m
      end
      else m
    in
    let c = a0 +. m_theta -. Rfid_prob.Logistic.exp_underflow in
    let disc = (a1 *. a1) -. (4. *. a2 *. c) in
    let r =
      if disc < 0. then 0.
      else begin
        (* Larger root of a2 d^2 + a1 d + c (2 a2 < 0 flips the sign). *)
        let root = ((-.a1) -. sqrt disc) /. (2. *. a2) in
        if root < 0. then 0. else root
      end
    in
    if not (Float.is_finite r) then infinity
    else begin
      (* Nudge up so the root-formula rounding can only over-cull
         nothing (a slightly larger radius culls strictly less). *)
      let r = (r *. 1.000001) +. 1e-9 in
      let vertex = if a1 <= 0. then 0. else -.a1 /. (2. *. a2) in
      if
        r > sat_d_max || r < vertex
        || Float.abs a1 *. r > 1e12
        || Float.abs a2 *. r *. r > 1e12
        || not
             (a0 +. (a1 *. r) +. (a2 *. r *. r) +. m_theta
             <= Rfid_prob.Logistic.exp_underflow +. 0.4)
      then infinity
      else r
    end
  end

(* Per-epoch memo of reader-particle poses for the filter hot paths:
   the pose-dependent inputs of the logit live in flat unboxed slabs
   (one slot per reader particle), so the per-object-particle weight
   evaluation reads four floats by index instead of chasing a boxed
   [Vec3.t] through a particle record, and builds no intermediate
   vector. [log_prob_pre] replicates [geometry] + [logit] + the
   log-sigmoid branch operation for operation, so its result is
   bit-identical to [log_prob] on the memoized pose. *)

type pre = {
  pm : t;
  psat2 : float;
      (* squared saturation radius of [pm] ([infinity] = cull disabled):
         a miss term at squared distance beyond it is exactly -0.0 *)
  mutable pn : int;
  mutable prx : floatarray;
  mutable pry : floatarray;
  mutable prz : floatarray;
  mutable phead : floatarray;
  mutable pbad : int;
      (* pose slots in [0, pn) holding a non-finite component: the
         saturation argument assumes finite poses, so culling is
         disabled (cut forced to infinity) while any are present *)
}

let precompute t ~n =
  if n < 0 then invalid_arg "Sensor_model.precompute: negative size";
  let cap = Int.max n 1 in
  let r = saturation_radius t in
  {
    pm = t;
    psat2 = r *. r;
    pn = n;
    prx = Float.Array.make cap 0.;
    pry = Float.Array.make cap 0.;
    prz = Float.Array.make cap 0.;
    phead = Float.Array.make cap 0.;
    pbad = 0;
  }

let pre_size p = p.pn

let slot_bad p i =
  not
    (Float.is_finite (Float.Array.unsafe_get p.prx i)
    && Float.is_finite (Float.Array.unsafe_get p.pry i)
    && Float.is_finite (Float.Array.unsafe_get p.prz i)
    && Float.is_finite (Float.Array.unsafe_get p.phead i))

let recount_bad p =
  let bad = ref 0 in
  for i = 0 to p.pn - 1 do
    if slot_bad p i then incr bad
  done;
  p.pbad <- !bad

let pre_resize p n =
  if n < 0 then invalid_arg "Sensor_model.pre_resize: negative size";
  let changed = n <> p.pn || n > Float.Array.length p.prx in
  if n > Float.Array.length p.prx then begin
    let cap = Int.max n (2 * Float.Array.length p.prx) in
    p.prx <- Float.Array.make cap 0.;
    p.pry <- Float.Array.make cap 0.;
    p.prz <- Float.Array.make cap 0.;
    p.phead <- Float.Array.make cap 0.
  end;
  p.pn <- n;
  if changed then recount_bad p

let pre_set_pose p i ~x ~y ~z ~heading =
  if i < 0 || i >= p.pn then invalid_arg "Sensor_model.pre_set_pose: index out of range";
  let was_bad = slot_bad p i in
  Float.Array.unsafe_set p.prx i x;
  Float.Array.unsafe_set p.pry i y;
  Float.Array.unsafe_set p.prz i z;
  Float.Array.unsafe_set p.phead i heading;
  let is_bad = slot_bad p i in
  if is_bad <> was_bad then p.pbad <- p.pbad + (if is_bad then 1 else -1)

(* Zero-sign-exact equality: the kernels' arithmetic distinguishes
   +0.0 from -0.0 ([atan2 dy dx] and subtraction both do), so a pose
   "same" test must too; NaN never compares equal, so a NaN pose is
   conservatively treated as changed. *)
let same_float v w =
  v = w && (v <> 0. || Float.sign_bit v = Float.sign_bit w)

let pre_set_pose_checked p i ~x ~y ~z ~heading =
  if i < 0 || i >= p.pn then
    invalid_arg "Sensor_model.pre_set_pose_checked: index out of range";
  if
    same_float (Float.Array.unsafe_get p.prx i) x
    && same_float (Float.Array.unsafe_get p.pry i) y
    && same_float (Float.Array.unsafe_get p.prz i) z
    && same_float (Float.Array.unsafe_get p.phead i) heading
  then false
  else begin
    pre_set_pose p i ~x ~y ~z ~heading;
    true
  end

let log_prob_pre p i ~tx ~ty ~tz ~read =
  if i < 0 || i >= p.pn then invalid_arg "Sensor_model.log_prob_pre: index out of range";
  let dx = tx -. Float.Array.unsafe_get p.prx i in
  let dy = ty -. Float.Array.unsafe_get p.pry i in
  let dz = tz -. Float.Array.unsafe_get p.prz i in
  (* [Vec3.norm (sub tag reader)] and [geometry]'s angle, verbatim. *)
  let d = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
  let theta =
    if dx = 0. && dy = 0. then 0.
    else Float.abs (wrap (atan2 dy dx -. Float.Array.unsafe_get p.phead i))
  in
  let m = p.pm in
  let z =
    m.a0 +. (m.a1 *. d) +. (m.a2 *. d *. d) +. (m.b1 *. theta) +. (m.b2 *. theta *. theta)
  in
  if read then Rfid_prob.Logistic.log_sigmoid z else Rfid_prob.Logistic.log_sigmoid (-.z)

(* Batched memo accumulation. One cross-module call per (object, epoch)
   or (tag, epoch) that loops over a whole particle store / pose set
   internally, instead of one [log_prob_pre] call per particle: without
   flambda every float crossing a module boundary is boxed, so the
   call-per-particle shape allocates ~30 words per sensor term while
   these loops allocate nothing. The body is [log_prob_pre] verbatim
   (same ops, same order, [Logistic.log_sigmoid]'s formula inlined
   textually), so results are bit-identical. *)

(* The sensor term below appears three times, textually identical:
   without flambda, `[@inline]` is ignored and even a same-module call
   to a shared helper boxes its float arguments and result (~7 words
   per particle), so the body is hand-inlined into each loop. Any edit
   to one copy must be applied to all three.

   Saturation cull: [cut] is the squared-distance gate — the memo's
   [psat2] for a miss term (forced to [infinity], i.e. never taken,
   for a read term, which saturates to the non-constant [z] rather
   than -0.0, when any memoized pose is non-finite, or in the tag
   kernel when [miss_weight] cannot carry -0.0 through its scaling).
   A culled entry's term is exactly -0.0, so skipping the accumulate
   is a bitwise no-op; the [d2 <= sat_d2_max] side keeps the skip
   inside the radius derivation's no-overflow envelope, and both
   comparisons are false on a NaN [d2], which falls through to the
   full kernel (always correct). Each kernel returns how many entries
   it culled, so callers can account for skipped work without the
   kernels touching any shared counter. *)

let pre_accumulate_store p store ~read =
  let n = Rfid_prob.Particle_store.length store in
  let xs, ys, zs, lw, ridx = Rfid_prob.Particle_store.backing store in
  let cut = if read || p.pbad > 0 then infinity else p.psat2 in
  let culled = ref 0 in
  for i = 0 to n - 1 do
    let r = Array.unsafe_get ridx i in
    if r < 0 || r >= p.pn then
      invalid_arg "Sensor_model.pre_accumulate_store: reader index out of range";
    let dx = Float.Array.unsafe_get xs i -. Float.Array.unsafe_get p.prx r in
    let dy = Float.Array.unsafe_get ys i -. Float.Array.unsafe_get p.pry r in
    let dz = Float.Array.unsafe_get zs i -. Float.Array.unsafe_get p.prz r in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if d2 > cut && d2 <= sat_d2_max then incr culled
    else begin
      let d = sqrt d2 in
      let theta =
        if dx = 0. && dy = 0. then 0.
        else begin
          (* [wrap], inlined: a same-module call still boxes its float
             argument and result without flambda. *)
          let a = atan2 dy dx -. Float.Array.unsafe_get p.phead r in
          let two_pi = 2. *. Float.pi in
          let a = Float.rem a two_pi in
          let a =
            if a > Float.pi then a -. two_pi
            else if a <= -.Float.pi then a +. two_pi
            else a
          in
          Float.abs a
        end
      in
      let m = p.pm in
      let z =
        m.a0 +. (m.a1 *. d) +. (m.a2 *. d *. d) +. (m.b1 *. theta)
        +. (m.b2 *. theta *. theta)
      in
      let z = if read then z else -.z in
      (* Rfid_prob.Logistic.log_sigmoid, inlined to keep the float unboxed. *)
      let l = if z >= 0. then -.log1p (exp (-.z)) else z -. log1p (exp z) in
      Float.Array.unsafe_set lw i (Float.Array.unsafe_get lw i +. l)
    end
  done;
  !culled

let pre_accumulate_tag p ~tx ~ty ~tz ~read ~miss_weight acc =
  if Array.length acc < p.pn then
    invalid_arg "Sensor_model.pre_accumulate_tag: accumulator shorter than pose set";
  (* The culled miss term is [miss_weight *. -0.0], a bitwise no-op
     only when that product is itself -0.0 — true exactly for a
     non-negative [miss_weight] whose sign bit is clear (+0.0 or
     positive; a negative, -0.0 or NaN weight flips/poisons the
     product), so anything else disables the cull. *)
  let cut =
    if read || p.pbad > 0 || not (miss_weight >= 0. && not (Float.sign_bit miss_weight))
    then infinity
    else p.psat2
  in
  let culled = ref 0 in
  for r = 0 to p.pn - 1 do
    let dx = tx -. Float.Array.unsafe_get p.prx r in
    let dy = ty -. Float.Array.unsafe_get p.pry r in
    let dz = tz -. Float.Array.unsafe_get p.prz r in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if d2 > cut && d2 <= sat_d2_max then incr culled
    else begin
      let d = sqrt d2 in
      let theta =
        if dx = 0. && dy = 0. then 0.
        else begin
          (* [wrap], inlined: a same-module call still boxes its float
             argument and result without flambda. *)
          let a = atan2 dy dx -. Float.Array.unsafe_get p.phead r in
          let two_pi = 2. *. Float.pi in
          let a = Float.rem a two_pi in
          let a =
            if a > Float.pi then a -. two_pi
            else if a <= -.Float.pi then a +. two_pi
            else a
          in
          Float.abs a
        end
      in
      let m = p.pm in
      let z =
        m.a0 +. (m.a1 *. d) +. (m.a2 *. d *. d) +. (m.b1 *. theta)
        +. (m.b2 *. theta *. theta)
      in
      let z = if read then z else -.z in
      let l = if z >= 0. then -.log1p (exp (-.z)) else z -. log1p (exp z) in
      let l = if read then l else miss_weight *. l in
      Array.unsafe_set acc r (Array.unsafe_get acc r +. l)
    end
  done;
  !culled

let pre_accumulate_joint_obj p store ~obj ~num_objects ~read acc =
  if Array.length acc < p.pn then
    invalid_arg "Sensor_model.pre_accumulate_joint_obj: accumulator shorter than pose set";
  if obj < 0 || obj >= num_objects then
    invalid_arg "Sensor_model.pre_accumulate_joint_obj: object out of range";
  if p.pn * num_objects > Rfid_prob.Particle_store.length store then
    invalid_arg "Sensor_model.pre_accumulate_joint_obj: store shorter than pose set";
  let xs, ys, zs, _, _ = Rfid_prob.Particle_store.backing store in
  let cut = if read || p.pbad > 0 then infinity else p.psat2 in
  let culled = ref 0 in
  for r = 0 to p.pn - 1 do
    let s = (r * num_objects) + obj in
    let dx = Float.Array.unsafe_get xs s -. Float.Array.unsafe_get p.prx r in
    let dy = Float.Array.unsafe_get ys s -. Float.Array.unsafe_get p.pry r in
    let dz = Float.Array.unsafe_get zs s -. Float.Array.unsafe_get p.prz r in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if d2 > cut && d2 <= sat_d2_max then incr culled
    else begin
      let d = sqrt d2 in
      let theta =
        if dx = 0. && dy = 0. then 0.
        else begin
          (* [wrap], inlined: a same-module call still boxes its float
             argument and result without flambda. *)
          let a = atan2 dy dx -. Float.Array.unsafe_get p.phead r in
          let two_pi = 2. *. Float.pi in
          let a = Float.rem a two_pi in
          let a =
            if a > Float.pi then a -. two_pi
            else if a <= -.Float.pi then a +. two_pi
            else a
          in
          Float.abs a
        end
      in
      let m = p.pm in
      let z =
        m.a0 +. (m.a1 *. d) +. (m.a2 *. d *. d) +. (m.b1 *. theta)
        +. (m.b2 *. theta *. theta)
      in
      let z = if read then z else -.z in
      let l = if z >= 0. then -.log1p (exp (-.z)) else z -. log1p (exp z) in
      Array.unsafe_set acc r (Array.unsafe_get acc r +. l)
    end
  done;
  !culled

let pre_poses p = (p.prx, p.pry, p.prz, p.phead)

let max_search_range = 100.

let detection_range ?(threshold = 0.02) t =
  if read_prob_at t ~d:0. ~theta:0. < threshold then 0.
  else begin
    (* First head-on crossing below the threshold. A fitted model can
       have a non-monotone logit (e.g. a slightly positive quadratic
       term from noisy calibration data); scanning outward from 0 keeps
       the range physical — the region past a rebound is an artifact of
       extrapolating the polynomial, not a real detection zone. *)
    let step = 0.25 in
    let rec find_bracket d =
      if d >= max_search_range then max_search_range
      else if read_prob_at t ~d:(d +. step) ~theta:0. < threshold then d +. step
      else find_bracket (d +. step)
    in
    let hi = find_bracket 0. in
    if hi >= max_search_range then max_search_range
    else begin
      let lo = Float.max 0. (hi -. step) in
      let rec bisect lo hi k =
        if k = 0 then hi
        else begin
          let mid = (lo +. hi) /. 2. in
          if read_prob_at t ~d:mid ~theta:0. < threshold then bisect lo mid (k - 1)
          else bisect mid hi (k - 1)
        end
      in
      bisect lo hi 40
    end
  end

let detection_half_angle ?(threshold = 0.02) t ~d =
  if read_prob_at t ~d ~theta:Float.pi >= threshold then Float.pi
  else if read_prob_at t ~d ~theta:0. < threshold then 0.
  else begin
    let rec bisect lo hi k =
      if k = 0 then hi
      else begin
        let mid = (lo +. hi) /. 2. in
        if read_prob_at t ~d ~theta:mid < threshold then bisect lo mid (k - 1)
        else bisect mid hi (k - 1)
      end
    in
    bisect 0. Float.pi 40
  end

let pp ppf t =
  Format.fprintf ppf "sigmoid(%.3f %+.3f d %+.3f d^2 %+.3f th %+.3f th^2)" t.a0 t.a1
    t.a2 t.b1 t.b2
