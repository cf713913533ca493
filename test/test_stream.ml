open Rfid_stream
open Rfid_core

let ev ~epoch ~obj ~x ~y = Event.make ~epoch ~obj ~loc:(Util.vec3 x y 0.) ()

(* Fire code query *)

let weight_of _ = 60.
let fire_code events = Fire_code.run (Fire_code.create ~weight_of) events

let test_fire_code_triggers () =
  (* Three 60-lb objects land in the same square foot within the window:
     180 <= 200, no violation; the fourth pushes it to 240. *)
  match
    fire_code
      [
        ev ~epoch:0 ~obj:1 ~x:2.2 ~y:3.3;
        ev ~epoch:1 ~obj:2 ~x:2.5 ~y:3.7;
        ev ~epoch:2 ~obj:3 ~x:2.9 ~y:3.1;
        ev ~epoch:3 ~obj:4 ~x:2.1 ~y:3.9;
      ]
  with
  | [ v ] ->
      Alcotest.(check int) "at the fourth event" 3 v.Fire_code.v_epoch;
      Alcotest.(check (pair int int)) "cell" (2, 3) v.Fire_code.v_cell;
      Util.check_close "total weight" 240. v.Fire_code.v_weight;
      Alcotest.(check (list int)) "objects" [ 1; 2; 3; 4 ] v.Fire_code.v_objects
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_fire_code_window_expiry () =
  (* 10 epochs later the old events have left the 5-epoch window; a new
     60-lb object alone cannot violate. *)
  let vs =
    fire_code
      [
        ev ~epoch:0 ~obj:1 ~x:2.2 ~y:3.3;
        ev ~epoch:0 ~obj:2 ~x:2.5 ~y:3.7;
        ev ~epoch:0 ~obj:3 ~x:2.9 ~y:3.1;
        ev ~epoch:10 ~obj:4 ~x:2.1 ~y:3.9;
      ]
  in
  Alcotest.(check int) "expired events don't count" 0 (List.length vs)

(* The fire-code query's range window *)

let test_window_eviction () =
  (* The 5-epoch window at epoch 4 still holds epoch 0; at epoch 5 it
     no longer does. *)
  let three = List.init 3 (fun i -> ev ~epoch:i ~obj:i ~x:2.5 ~y:3.5) in
  (match fire_code (three @ [ ev ~epoch:4 ~obj:3 ~x:2.5 ~y:3.5 ]) with
  | [ v ] -> Alcotest.(check (list int)) "oldest still in" [ 0; 1; 2; 3 ] v.Fire_code.v_objects
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  Alcotest.(check int) "oldest evicted" 0
    (List.length (fire_code (three @ [ ev ~epoch:5 ~obj:3 ~x:2.5 ~y:3.5 ])))

let test_window_fold () =
  (* The cell's weight is the sum over the window's entries in that
     cell: 70 + 80 + 90 lb, not counting the object in another cell. *)
  let weight_of obj = 60. +. (10. *. float_of_int obj) in
  let q = Fire_code.create ~weight_of in
  match
    Fire_code.run q
      [
        ev ~epoch:0 ~obj:1 ~x:2.5 ~y:3.5;
        ev ~epoch:1 ~obj:2 ~x:2.5 ~y:3.5;
        ev ~epoch:1 ~obj:9 ~x:7.5 ~y:7.5;
        ev ~epoch:2 ~obj:3 ~x:2.5 ~y:3.5;
      ]
  with
  | [ v ] ->
      Util.check_close "fold sum" 240. v.Fire_code.v_weight;
      Alcotest.(check (list int)) "objects folded" [ 1; 2; 3 ] v.Fire_code.v_objects
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_window_same_epoch () =
  let q = Fire_code.create ~weight_of in
  (match Fire_code.run q (List.init 4 (fun i -> ev ~epoch:5 ~obj:i ~x:2.5 ~y:3.5)) with
  | [ v ] -> Alcotest.(check (list int)) "all kept" [ 0; 1; 2; 3 ] v.Fire_code.v_objects
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  Util.check_raises_invalid "regression" (fun () ->
      ignore (Fire_code.run q [ ev ~epoch:4 ~obj:9 ~x:0. ~y:0. ]))

let test_fire_code_relocation_supersedes () =
  (* Object 1 moves to another cell; the fourth object arrives in the
     original cell — but now only 3 * 60 = 180 lbs there. *)
  let vs =
    fire_code
      [
        ev ~epoch:0 ~obj:1 ~x:2.2 ~y:3.3;
        ev ~epoch:1 ~obj:2 ~x:2.5 ~y:3.7;
        ev ~epoch:2 ~obj:3 ~x:2.9 ~y:3.1;
        ev ~epoch:3 ~obj:1 ~x:9.9 ~y:9.9;
        ev ~epoch:4 ~obj:4 ~x:2.1 ~y:3.9;
      ]
  in
  Alcotest.(check int) "moved object no longer counts" 0 (List.length vs)

let test_fire_code_cell_of () =
  let cell_at x y =
    match fire_code (List.init 4 (fun i -> ev ~epoch:0 ~obj:i ~x ~y)) with
    | [ v ] -> v.Fire_code.v_cell
    | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)
  in
  Alcotest.(check (pair int int)) "positive" (2, 3) (cell_at 2.7 3.1);
  Alcotest.(check (pair int int)) "negative floors down" (-3, 0) (cell_at (-2.1) 0.5)

let test_fire_code_once_per_epoch () =
  (* A later event in the same epoch must not report the cell again;
     the next epoch reports it anew. *)
  let q = Fire_code.create ~weight_of in
  let hot = List.init 4 (fun i -> ev ~epoch:0 ~obj:i ~x:2.5 ~y:3.5) in
  let vs = Fire_code.run q (hot @ [ ev ~epoch:0 ~obj:4 ~x:7.5 ~y:7.5 ]) in
  Alcotest.(check (list string)) "reported once"
    [ "t=0 cell=(2,3) weight=240.0 lbs objects=[0;1;2;3]" ]
    (List.map (Format.asprintf "%a" Fire_code.pp_violation) vs);
  Alcotest.(check (list int)) "reported again next epoch" [ 1 ]
    (List.map
       (fun v -> v.Fire_code.v_epoch)
       (Fire_code.run q [ ev ~epoch:1 ~obj:5 ~x:7.5 ~y:7.5; ev ~epoch:1 ~obj:6 ~x:7.5 ~y:7.5 ]))

let test_fire_code_run () =
  let events = List.init 4 (fun i -> ev ~epoch:i ~obj:i ~x:2.5 ~y:3.5) in
  let vs = fire_code events in
  Alcotest.(check int) "one violation in batch" 1 (List.length vs);
  ignore (Format.asprintf "%a" Fire_code.pp_violation (List.hd vs))

let suite =
  ( "stream",
    [
      Alcotest.test_case "window eviction" `Quick test_window_eviction;
      Alcotest.test_case "window same-epoch entries" `Quick test_window_same_epoch;
      Alcotest.test_case "window fold" `Quick test_window_fold;
      Alcotest.test_case "fire code triggers" `Quick test_fire_code_triggers;
      Alcotest.test_case "fire code window expiry" `Quick test_fire_code_window_expiry;
      Alcotest.test_case "fire code relocation" `Quick
        test_fire_code_relocation_supersedes;
      Alcotest.test_case "fire code cells" `Quick test_fire_code_cell_of;
      Alcotest.test_case "fire code once per epoch" `Quick test_fire_code_once_per_epoch;
      Alcotest.test_case "fire code run" `Quick test_fire_code_run;
    ] )
