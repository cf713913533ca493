(* Tests for the dynamic grid index behind the serving layer's query cache:
   deterministic handle-lifecycle, oversize-entry and cell-retune checks,
   plus random operation traces proving the index is trace-equivalent to a
   naive model — every query agrees with a linear scan over the live
   entries, across insert / update / clear, the self-tuning rehashes they
   trigger, and boxes and probes at far finite coordinates. *)

module Dyn_index = Rfid_geom.Dyn_index
module Box2 = Rfid_geom.Box2
module Hits = Dyn_index.Hits
module Rng = Rfid_prob.Rng

let box x0 y0 x1 y1 = Box2.make ~min_x:x0 ~min_y:y0 ~max_x:x1 ~max_y:y1

let sorted_hits hits =
  let out = ref [] in
  for i = 0 to Hits.length hits - 1 do
    out := Hits.get hits i :: !out
  done;
  List.sort Int.compare !out

let query idx probe =
  let hits = Hits.create ~dummy:(-1) in
  Dyn_index.query_into idx probe hits;
  sorted_hits hits

let entry idx h =
  let found = ref None in
  Dyn_index.iter idx (fun h' b v -> if h' = h then found := Some (b, v));
  match !found with Some e -> e | None -> Alcotest.failf "handle %d not live" h

let test_handle_lifecycle () =
  let idx = Dyn_index.create ~dummy:(-1) () in
  Alcotest.(check (list int)) "empty index, empty query" []
    (query idx (box (-1e9) (-1e9) 1e9 1e9));
  let h1 = Dyn_index.insert idx (box 0. 0. 1. 1.) 10 in
  let h2 = Dyn_index.insert idx (box 5. 5. 6. 6.) 20 in
  let h3 = Dyn_index.insert idx (box 0.5 0.5 5.5 5.5) 30 in
  Alcotest.(check int) "size" 3 (Dyn_index.size idx);
  let b, v = entry idx h2 in
  Alcotest.(check int) "entry value" 20 v;
  Alcotest.(check bool) "entry box" true (b = box 5. 5. 6. 6.);
  Alcotest.(check (list int)) "corner probe" [ 10; 30 ]
    (query idx (box 0. 0. 0.6 0.6));
  Alcotest.(check (list int)) "shared edge counts" [ 10; 30 ]
    (query idx (box 1. 1. 1. 1.));
  Alcotest.(check (list int)) "whole plane" [ 10; 20; 30 ]
    (query idx (box (-100.) (-100.) 100. 100.));
  Util.check_raises_invalid "out-of-range handle" (fun () ->
      Dyn_index.update idx 999 (box 0. 0. 1. 1.) 0);
  Util.check_raises_invalid "negative handle" (fun () ->
      Dyn_index.update idx (-1) (box 0. 0. 1. 1.) 0);
  (* Update moves an entry without changing its handle. *)
  Dyn_index.update idx h1 (box 50. 50. 51. 51.) 11;
  Alcotest.(check (list int)) "moved away" [ 30 ] (query idx (box 0. 0. 0.6 0.6));
  Alcotest.(check (list int)) "moved here" [ 11 ]
    (query idx (box 49. 49. 52. 52.));
  Dyn_index.clear idx;
  Alcotest.(check int) "cleared" 0 (Dyn_index.size idx);
  Util.check_raises_invalid "cleared handles are dead" (fun () ->
      Dyn_index.update idx h3 (box 0. 0. 1. 1.) 0);
  Alcotest.(check (list int)) "query after clear" []
    (query idx (box (-1e9) (-1e9) 1e9 1e9));
  (* Handles restart after a clear and answer for the new entry only. *)
  let h4 = Dyn_index.insert idx (box 8. 8. 9. 9.) 40 in
  Alcotest.(check int) "handles restart" h1 h4;
  Alcotest.(check (list int)) "restarted handle is the new entry" [ 40 ]
    (query idx (box (-100.) (-100.) 100. 100.))

(* The reusable hit buffer: bounds-checked reads, and every probe
   starts from an empty buffer. *)
let test_hits_buffer () =
  let idx = Dyn_index.create ~dummy:(-1) () in
  let hits = Hits.create ~dummy:(-1) in
  Dyn_index.query_into idx (box 0. 0. 10. 10.) hits;
  Alcotest.(check int) "empty index" 0 (Hits.length hits);
  ignore (Dyn_index.insert idx (box 0. 0. 1. 1.) 1);
  ignore (Dyn_index.insert idx (box 5. 5. 6. 6.) 2);
  Dyn_index.query_into idx (box 0.5 0.5 0.7 0.7) hits;
  Alcotest.(check int) "one hit" 1 (Hits.length hits);
  Alcotest.(check int) "hit value" 1 (Hits.get hits 0);
  Util.check_raises_invalid "get out of range" (fun () -> Hits.get hits 1);
  Dyn_index.query_into idx (box 2. 2. 3. 3.) hits;
  Alcotest.(check int) "miss clears previous hits" 0 (Hits.length hits)

(* An entry spanning far more cells than [max_span_cells] lives on the
   oversize list, yet behaves exactly like any other entry. *)
let test_oversize () =
  let idx = Dyn_index.create ~dummy:(-1) () in
  for i = 0 to 19 do
    ignore
      (Dyn_index.insert idx
         (box (float_of_int i) 0. (float_of_int i +. 0.5) 0.5)
         i)
  done;
  let hh = Dyn_index.insert idx (box (-1e6) (-1e6) 1e6 1e6) 999 in
  Alcotest.(check (list int)) "oversize entry found by a tiny probe"
    [ 3; 999 ]
    (query idx (box 3.1 0.1 3.2 0.2));
  (* Shrinking it back via update must pull it off the oversize list. *)
  Dyn_index.update idx hh (box 2.0 0.0 2.2 0.4) 999;
  Alcotest.(check (list int)) "no longer everywhere" [ 3 ]
    (query idx (box 3.1 0.1 3.2 0.2));
  Alcotest.(check (list int)) "now a normal entry" [ 2; 999 ]
    (query idx (box 2.05 0.1 2.1 0.2))

(* The cell size tracks the live population's box extents, and queries
   survive the rehashes in both directions. *)
let test_cell_retune () =
  let idx = Dyn_index.create ~dummy:(-1) () in
  Alcotest.(check (float 0.)) "initial cell" 1.0 (Dyn_index.cell_size idx);
  for i = 0 to 31 do
    let x = float_of_int (i * 30) in
    ignore (Dyn_index.insert idx (box x 0. (x +. 100.) 100.) i)
  done;
  Alcotest.(check bool) "cell grew with big boxes" true
    (Dyn_index.cell_size idx > 4.0);
  Alcotest.(check (list int)) "query correct after growing rehash" [ 0; 1 ]
    (query idx (box 35. 5. 45. 10.));
  Dyn_index.clear idx;
  for i = 0 to 31 do
    let x = float_of_int i in
    ignore (Dyn_index.insert idx (box x 0. (x +. 0.1) 0.1) (100 + i))
  done;
  Alcotest.(check bool) "cell shrank with small boxes" true
    (Dyn_index.cell_size idx < 1.0);
  Alcotest.(check (list int)) "query correct after shrinking rehash" [ 105 ]
    (query idx (box 5.05 0.05 5.06 0.06))

(* Random operation traces against a naive (handle -> box * value)
   model: after every mutation the sizes agree, every query agrees with
   a linear intersection scan, and [iter] visits exactly the live
   entries in ascending handle order. Values are unique, so list
   comparison is exact. *)
let prop_matches_model =
  Util.qcheck ~count:60 "random op trace matches linear scan"
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed in
      let idx = Dyn_index.create ~dummy:(-1) () in
      let hits = Hits.create ~dummy:(-1) in
      let model : (int, Box2.t * int) Hashtbl.t = Hashtbl.create 64 in
      let next = ref 0 in
      let ok = ref true in
      let coord () = (float_of_int (Rng.int rng 2001) /. 10.) -. 100. in
      (* Coordinates whose cell number does not fit an int. *)
      let far () = if Rng.int rng 2 = 0 then 1e19 else 1e300 in
      let random_box () =
        let x0 = coord () and y0 = coord () in
        match Rng.int rng 12 with
        | 0 -> box x0 y0 x0 y0 (* degenerate point box *)
        | 1 ->
            (* wide enough to land on the oversize list *)
            box (x0 -. 500.) (y0 -. 500.) (x0 +. 500.) (y0 +. 500.)
        | 2 ->
            let e = far () in
            box (-.e) (-.e) e e
        | 3 -> (
            let e = far () in
            match Rng.int rng 3 with
            | 0 -> box e y0 e y0 (* a point far out *)
            | 1 -> box x0 y0 e e (* reaching out from the normal range *)
            | _ -> box (-.e) (-.e) (-.e) y0)
        | _ ->
            let w = float_of_int (Rng.int rng 80) /. 10. in
            let h = float_of_int (Rng.int rng 80) /. 10. in
            box x0 y0 (x0 +. w) (y0 +. h)
      in
      let live_handle () =
        match Hashtbl.fold (fun k _ acc -> k :: acc) model [] with
        | [] -> None
        | keys -> Some (List.nth keys (Rng.int rng (List.length keys)))
      in
      let check_query probe =
        Dyn_index.query_into idx probe hits;
        let got = sorted_hits hits in
        let want =
          Hashtbl.fold
            (fun _ (b, v) acc ->
              if Box2.intersects b probe then v :: acc else acc)
            model []
          |> List.sort Int.compare
        in
        if got <> want then ok := false
      in
      for _ = 1 to 300 do
        (match Rng.int rng 100 with
        | r when r < 40 ->
            let b = random_box () in
            let v = !next in
            incr next;
            let h = Dyn_index.insert idx b v in
            if Hashtbl.mem model h then ok := false (* live handles unique *);
            Hashtbl.replace model h (b, v)
        | r when r < 78 -> (
            match live_handle () with
            | None -> ()
            | Some h ->
                let b = random_box () in
                let v = !next in
                incr next;
                Dyn_index.update idx h b v;
                Hashtbl.replace model h (b, v))
        | r when r < 98 -> check_query (random_box ())
        | _ ->
            Dyn_index.clear idx;
            Hashtbl.reset model);
        if Dyn_index.size idx <> Hashtbl.length model then ok := false
      done;
      check_query (box (-1e7) (-1e7) 1e7 1e7);
      check_query (box (-1e19) (-1e19) 1e19 1e19);
      check_query (box (-1e300) (-1e300) 1e300 1e300);
      let visited = ref [] in
      Dyn_index.iter idx (fun h b v -> visited := (h, b, v) :: !visited);
      let visited = List.rev !visited in
      let rec is_ascending = function
        | (h1, _, _) :: ((h2, _, _) :: _ as rest) ->
            h1 < h2 && is_ascending rest
        | _ -> true
      in
      let model_entries =
        Hashtbl.fold (fun h (b, v) acc -> (h, b, v) :: acc) model []
        |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
      in
      !ok && is_ascending visited && visited = model_entries)

let suite =
  ( "dyn_index",
    [
      Alcotest.test_case "handle lifecycle" `Quick test_handle_lifecycle;
      Alcotest.test_case "hits buffer" `Quick test_hits_buffer;
      Alcotest.test_case "oversize entries" `Quick test_oversize;
      Alcotest.test_case "cell self-tuning" `Quick test_cell_retune;
      prop_matches_model;
    ] )
