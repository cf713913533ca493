open Rfid_model
module Obs = Rfid_obs.Metrics

type fault =
  | Nonfinite_fix
  | Out_of_bounds_fix
  | Negative_epoch
  | Duplicate_epoch
  | Out_of_order_epoch
  | Epoch_gap
  | Out_of_range_tag

let all_faults =
  [
    Nonfinite_fix;
    Out_of_bounds_fix;
    Negative_epoch;
    Duplicate_epoch;
    Out_of_order_epoch;
    Epoch_gap;
    Out_of_range_tag;
  ]

let fault_index = function
  | Nonfinite_fix -> 0
  | Out_of_bounds_fix -> 1
  | Negative_epoch -> 2
  | Duplicate_epoch -> 3
  | Out_of_order_epoch -> 4
  | Epoch_gap -> 5
  | Out_of_range_tag -> 6

let fault_name = function
  | Nonfinite_fix -> "nonfinite-fix"
  | Out_of_bounds_fix -> "out-of-bounds-fix"
  | Negative_epoch -> "negative-epoch"
  | Duplicate_epoch -> "duplicate-epoch"
  | Out_of_order_epoch -> "out-of-order-epoch"
  | Epoch_gap -> "epoch-gap"
  | Out_of_range_tag -> "out-of-range-tag"

type decision =
  | Accept of Types.observation
  | Degraded of Types.epoch * Types.tag list
  | Rejected
  | Halted of fault * string

(* Slack around the deployment bounds before a fix counts as out of
   bounds, and the largest forward epoch jump admitted uncounted. *)
let bounds_margin = 10.
let max_gap = 100

type t = {
  drop_out_of_order : bool;
  bounds : Rfid_geom.Box2.t option;  (* already inflated by [bounds_margin] *)
  max_object_id : int option;
  counts : int array;
  mutable last_epoch : int;  (* last admitted epoch; -1 initially *)
}

let create ?(drop_out_of_order = false) ?bounds ?max_object_id () =
  (match max_object_id with
  | Some n when n < 0 -> invalid_arg "Ingest.create: negative max_object_id"
  | Some _ | None -> ());
  {
    drop_out_of_order;
    bounds = Option.map (fun b -> Rfid_geom.Box2.inflate b bounds_margin) bounds;
    max_object_id;
    counts = Array.make (List.length all_faults) 0;
    last_epoch = -1;
  }

let count t fault = t.counts.(fault_index fault)
let counters t = List.map (fun f -> (f, count t f)) all_faults
(* Observability handles: one counter per fault kind (shared across all
   guard instances — the per-instance [counts] array stays the precise
   per-guard view), the stage span over [admit], and one counter per
   admission outcome. *)
let sp_ingest = Obs.span "stage.ingest"

let fault_obs =
  Array.of_list
    (List.map
       (fun f -> Obs.counter ("ingest.fault." ^ fault_name f))
       all_faults)

let c_admitted = Obs.counter "ingest.admitted"
let c_degraded = Obs.counter "ingest.degraded"
let c_rejected = Obs.counter "ingest.rejected"
let c_halted = Obs.counter "ingest.halted"

let note t fault =
  t.counts.(fault_index fault) <- t.counts.(fault_index fault) + 1;
  Obs.incr fault_obs.(fault_index fault) 1

let finite_fix (l : Rfid_geom.Vec3.t) =
  Float.is_finite l.Rfid_geom.Vec3.x
  && Float.is_finite l.Rfid_geom.Vec3.y
  && Float.is_finite l.Rfid_geom.Vec3.z

let bad_tag t = function
  | Types.Object_tag id ->
      id < 0 || (match t.max_object_id with Some n -> id >= n | None -> false)
  | Types.Shelf_tag id -> id < 0

(* Admission runs the checks in a fixed order — epoch timeline first
   (nothing downstream is meaningful on a bad epoch), then tag ids,
   then the location fix — and repairs each fault as the table in
   ingest.mli says. *)
let admit_inner t (obs : Types.observation) =
  let e = obs.Types.o_epoch in
  if e < 0 then begin
    note t Negative_epoch;
    Rejected
  end
  else if t.last_epoch >= 0 && e = t.last_epoch then begin
    note t Duplicate_epoch;
    Rejected
  end
  else if t.last_epoch >= 0 && e < t.last_epoch then begin
    note t Out_of_order_epoch;
    if t.drop_out_of_order then Rejected
    else
      Halted
        ( Out_of_order_epoch,
          Printf.sprintf
            "Ingest: epoch %d after epoch %d (out-of-order-epoch policy is halt)"
            e t.last_epoch )
  end
  else begin
    if t.last_epoch >= 0 && e > t.last_epoch + max_gap then note t Epoch_gap;
    let tags = obs.Types.o_read_tags in
    let tags =
      if List.exists (bad_tag t) tags then begin
        note t Out_of_range_tag;
        List.filter (fun tag -> not (bad_tag t tag)) tags
      end
      else tags
    in
    t.last_epoch <- e;
    let loc = obs.Types.o_reported_loc in
    let accept loc =
      Accept { Types.o_epoch = e; o_reported_loc = loc; o_read_tags = tags }
    in
    if not (finite_fix loc) then begin
      note t Nonfinite_fix;
      (* The fix is untrusted but the (validated) tag readings are not:
         pass them along so degraded-mode inference can still localize
         the reader from shelf tags. *)
      Degraded (e, tags)
    end
    else
      match t.bounds with
      | Some box ->
          if Rfid_geom.Box2.contains_point box loc then accept loc
          else begin
            note t Out_of_bounds_fix;
            let clamp v lo hi = Float.max lo (Float.min hi v) in
            accept
              (Rfid_geom.Vec3.make
                 (clamp loc.Rfid_geom.Vec3.x box.Rfid_geom.Box2.min_x
                    box.Rfid_geom.Box2.max_x)
                 (clamp loc.Rfid_geom.Vec3.y box.Rfid_geom.Box2.min_y
                    box.Rfid_geom.Box2.max_y)
                 loc.Rfid_geom.Vec3.z)
          end
      | None -> accept loc
  end

let admit t obs =
  let t0 = Obs.start sp_ingest in
  let decision = admit_inner t obs in
  (match decision with
  | Accept _ -> Obs.incr c_admitted 1
  | Degraded _ -> Obs.incr c_degraded 1
  | Rejected -> Obs.incr c_rejected 1
  | Halted _ -> Obs.incr c_halted 1);
  Obs.stop sp_ingest t0;
  decision

let advance_timeline t epoch =
  if epoch > t.last_epoch then t.last_epoch <- epoch

let step_engine t engine obs =
  match admit t obs with
  | Accept obs -> Ok (Rfid_core.Engine.step engine obs)
  | Degraded (epoch, tags) -> Ok (Rfid_core.Engine.step_degraded engine ~tags ~epoch)
  | Rejected -> Ok []
  | Halted (fault, msg) -> Error (fault, msg)

let run_engine t engine observations =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev (Rfid_core.Engine.flush engine :: acc)))
    | obs :: rest -> (
        match step_engine t engine obs with
        | Ok events -> go (events :: acc) rest
        | Error _ as e -> e)
  in
  go [] observations

let pp_counters ppf t =
  let nonzero = List.filter (fun (_, n) -> n > 0) (counters t) in
  if nonzero = [] then Format.fprintf ppf "no faults"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
      (fun ppf (f, n) -> Format.fprintf ppf "%s: %d" (fault_name f) n)
      ppf nonzero
