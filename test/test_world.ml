open Rfid_model

let test_create_validation () =
  Util.check_raises_invalid "empty" (fun () -> World.create []);
  let s =
    {
      World.shelf_id = 0;
      surface = Rfid_geom.Box2.make ~min_x:0. ~min_y:0. ~max_x:1. ~max_y:1.;
      height = 0.;
      tag = None;
    }
  in
  Util.check_raises_invalid "duplicate ids" (fun () -> World.create [ s; s ]);
  Util.check_raises_invalid "negative id" (fun () ->
      World.create [ s; { s with World.shelf_id = -1 } ])

let test_shelf_tags () =
  let w = Util.two_shelf_world () in
  Alcotest.(check int) "two tags" 2 (List.length (World.shelf_tags w));
  Util.check_vec3 "tag 0" (Util.vec3 2. 5. 0.) (World.shelf_tag_location w 0);
  Alcotest.check_raises "unknown shelf" Not_found (fun () ->
      ignore (World.shelf_tag_location w 9))

let test_with_shelf_tags () =
  let w = Util.two_shelf_world () in
  let w1 = World.with_shelf_tags w ~keep:[ 1 ] in
  Alcotest.(check int) "one tag kept" 1 (List.length (World.shelf_tags w1));
  Alcotest.check_raises "tag 0 dropped" Not_found (fun () ->
      ignore (World.shelf_tag_location w1 0));
  Util.check_vec3 "tag 1 kept" (Util.vec3 2. 15. 0.) (World.shelf_tag_location w1 1);
  (* Geometry unchanged. *)
  Alcotest.(check int) "shelves unchanged" 2 (Array.length (World.shelves w1));
  let w_none = World.with_shelf_tags w ~keep:[] in
  Alcotest.(check int) "no tags" 0 (List.length (World.shelf_tags w_none))

let test_sampling_on_shelves () =
  let w = Util.two_shelf_world () in
  let rng = Util.rng () in
  let on_first = ref 0 in
  for _ = 1 to 5000 do
    let p = World.sample_on_shelves w rng in
    if not (World.contains w p) then Alcotest.fail "sample off-shelf";
    if p.Rfid_geom.Vec3.y < 10. then incr on_first
  done;
  (* Equal areas: roughly half per shelf. *)
  Util.check_in_range "area weighting" ~lo:2200. ~hi:2800. (float_of_int !on_first)

let test_contains_and_clamp () =
  let w = Util.two_shelf_world () in
  Alcotest.(check bool) "inside" true (World.contains w (Util.vec3 3. 5. 0.));
  Alcotest.(check bool) "outside" false (World.contains w (Util.vec3 0. 5. 0.));
  Util.check_vec3 "clamp to edge" (Util.vec3 2. 5. 0.)
    (World.clamp_to_shelves w (Util.vec3 0. 5. 0.));
  (* A point already on a shelf clamps to itself. *)
  Util.check_vec3 "identity" (Util.vec3 3. 12. 0.)
    (World.clamp_to_shelves w (Util.vec3 3. 12. 0.));
  (* Clamping picks the nearest shelf. *)
  let c = World.clamp_to_shelves w (Util.vec3 5. 19. 0.) in
  Util.check_vec3 "nearest shelf" (Util.vec3 4. 19. 0.) c

let test_bbox_and_area () =
  let w = Util.two_shelf_world () in
  let b = World.bounding_box w in
  Util.check_close "bbox area" 40. (Rfid_geom.Box2.area b)

let prop_clamp_lands_on_shelf =
  Util.qcheck "clamp_to_shelves lands on a shelf"
    QCheck.(pair (float_range (-20.) 20.) (float_range (-20.) 40.))
    (fun (x, y) ->
      let w = Util.two_shelf_world () in
      World.contains w (World.clamp_to_shelves w (Util.vec3 x y 0.)))

let suite =
  ( "world",
    [
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "shelf tags" `Quick test_shelf_tags;
      Alcotest.test_case "with_shelf_tags" `Quick test_with_shelf_tags;
      Alcotest.test_case "sampling on shelves" `Quick test_sampling_on_shelves;
      Alcotest.test_case "contains and clamp" `Quick test_contains_and_clamp;
      Alcotest.test_case "bbox and area" `Quick test_bbox_and_area;
      prop_clamp_lands_on_shelf;
    ] )
