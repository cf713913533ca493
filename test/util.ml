(* Shared helpers for the test suite. *)

let check_float ?(eps = 1e-9) what expected actual =
  Alcotest.(check (float eps)) what expected actual

let check_close ?(eps = 1e-6) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g within %.2g, got %.9g" what expected eps actual

let check_in_range what ~lo ~hi actual =
  if not (actual >= lo && actual <= hi) then
    Alcotest.failf "%s: %.6g not in [%.6g, %.6g]" what actual lo hi

let check_raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rng ?(seed = 1234) () = Rfid_prob.Rng.create ~seed

(* A small fixed world: two 4x10 ft shelves along y, tags on the front
   edge. *)
let two_shelf_world () =
  let open Rfid_geom in
  Rfid_model.World.create
    [
      {
        Rfid_model.World.shelf_id = 0;
        surface = Box2.make ~min_x:2. ~min_y:0. ~max_x:4. ~max_y:10.;
        height = 0.;
        tag = Some (Vec3.make 2. 5. 0.);
      };
      {
        Rfid_model.World.shelf_id = 1;
        surface = Box2.make ~min_x:2. ~min_y:10. ~max_x:4. ~max_y:20.;
        height = 0.;
        tag = Some (Vec3.make 2. 15. 0.);
      };
    ]

let vec3 = Rfid_geom.Vec3.make

let vec3_equal ?(eps = 1e-9) (a : Rfid_geom.Vec3.t) (b : Rfid_geom.Vec3.t) =
  Float.abs (a.x -. b.x) <= eps && Float.abs (a.y -. b.y) <= eps && Float.abs (a.z -. b.z) <= eps

let check_vec3 ?(eps = 1e-6) what (expected : Rfid_geom.Vec3.t) (actual : Rfid_geom.Vec3.t) =
  if not (vec3_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %s got %s" what
      (Format.asprintf "%a" Rfid_geom.Vec3.pp expected)
      (Format.asprintf "%a" Rfid_geom.Vec3.pp actual)

(* Fraction of the trace's objects that received at least one event. *)
let coverage events (trace : Rfid_model.Trace.t) =
  float_of_int (List.length (Rfid_eval.Metrics.per_object_error events trace))
  /. float_of_int trace.Rfid_model.Trace.num_objects

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0
