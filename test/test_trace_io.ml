open Rfid_model

let obs e loc tags =
  { Types.o_epoch = e; o_reported_loc = loc; o_read_tags = tags }

let sample_stream () =
  [
    obs 0 (Util.vec3 0. (-1.) 0.) [ Types.Object_tag 3; Types.Shelf_tag 0 ];
    obs 1 (Util.vec3 0.013 (-0.897) 0.) [];
    obs 2 (Util.vec3 0.02 (-0.8) 0.1) [ Types.Object_tag 1 ];
  ]

let equal_obs (a : Types.observation) (b : Types.observation) =
  a.Types.o_epoch = b.Types.o_epoch
  && Util.vec3_equal ~eps:1e-5 a.Types.o_reported_loc b.Types.o_reported_loc
  && List.length a.Types.o_read_tags = List.length b.Types.o_read_tags
  && List.for_all2 ( = ) a.Types.o_read_tags b.Types.o_read_tags

(* The strict reader, fed a string through a file. *)
let observations_of_string s =
  let path = Filename.temp_file "rfid_io_strict" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      In_channel.with_open_bin path Trace_io.read_observations)

let test_roundtrip_string () =
  let stream = sample_stream () in
  let s = Trace_io.observations_to_string stream in
  let back = observations_of_string s in
  Alcotest.(check int) "length" (List.length stream) (List.length back);
  List.iter2
    (fun a b -> Alcotest.(check bool) "observation roundtrips" true (equal_obs a b))
    stream back

let test_roundtrip_simulated () =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:8 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:71)
  in
  let stream = Trace.observations trace in
  let back =
    observations_of_string (Trace_io.observations_to_string stream)
  in
  Alcotest.(check int) "length preserved" (List.length stream) (List.length back);
  List.iter2
    (fun a b -> Alcotest.(check bool) "roundtrips" true (equal_obs a b))
    stream back

let test_roundtrip_files () =
  let path = Filename.temp_file "rfid_io_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let stream = sample_stream () in
      let oc = open_out path in
      Trace_io.write_observations oc stream;
      close_out oc;
      let ic = open_in path in
      let back = Trace_io.read_observations ic in
      close_in ic;
      List.iter2
        (fun a b -> Alcotest.(check bool) "file roundtrip" true (equal_obs a b))
        stream back)

let test_malformed_rejected () =
  let bad s =
    match observations_of_string s with
    | _ -> Alcotest.failf "expected failure on %S" s
    | exception Failure _ -> ()
  in
  bad "1,2,3\n";
  bad "x,0,0,0,\n";
  bad "1,a,0,0,\n";
  bad "1,0,0,0,weird:3\n";
  bad "1,0,0,0,obj:xyz\n";
  (* Hardened checks: values that parse but poison the pipeline. *)
  bad "-1,0,0,0,\n";
  bad "1,nan,0,0,\n";
  bad "1,0,inf,0,\n";
  bad "1,0,0,0,obj:-3\n";
  bad "1,0,0,0,shelf:-1\n"

let test_messy_but_valid_accepted () =
  (* Trailing whitespace, CRLF endings and padded fields are transport
     noise, not data errors. *)
  let s = "5 , 1.0 ,\t2.0 , 3.0 , obj:7 ; shelf:2 \r\n\r\n  \n6,0,0,0,\r\n" in
  match observations_of_string s with
  | [ a; b ] ->
      Alcotest.(check int) "first epoch" 5 a.Types.o_epoch;
      Alcotest.(check int) "two tags" 2 (List.length a.Types.o_read_tags);
      Alcotest.(check bool) "tags parsed" true
        (List.mem (Types.Object_tag 7) a.Types.o_read_tags
        && List.mem (Types.Shelf_tag 2) a.Types.o_read_tags);
      Alcotest.(check int) "second epoch" 6 b.Types.o_epoch
  | l -> Alcotest.failf "expected two observations, got %d" (List.length l)

let test_lenient_reader () =
  let s =
    "# header comment\n\
     0,0,0,0,obj:1\n\
     broken line\n\
     -4,0,0,0,\n\
     2,nan,0,0,\n\
     3,1,1,0,obj:2\n"
  in
  let good, errors = Trace_io.observations_of_string_lenient s in
  Alcotest.(check (list int)) "good epochs" [ 0; 3 ]
    (List.map (fun (o : Types.observation) -> o.Types.o_epoch) good);
  Alcotest.(check (list int)) "error line numbers" [ 3; 4; 5 ]
    (List.map fst errors);
  List.iter
    (fun (_, msg) -> Alcotest.(check bool) "message non-empty" true (msg <> ""))
    errors;
  (* Strict reader fails on the same input, with a line number. *)
  (match observations_of_string s with
  | _ -> Alcotest.fail "strict reader must reject"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "line number in %S" msg)
        true
        (String.length msg > 0 && String.contains msg '3'));
  (* Lenient file reader agrees with the string reader. *)
  let path = Filename.temp_file "rfid_io_lenient" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      let ic = open_in path in
      let good2, errors2 =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Trace_io.read_observations_lenient ic)
      in
      Alcotest.(check int) "file good count" (List.length good) (List.length good2);
      Alcotest.(check (list int)) "file error lines" (List.map fst errors)
        (List.map fst errors2))

let test_comments_and_blank_lines_skipped () =
  let s = "# comment\n\nepoch,reported_x,reported_y,reported_z,tags\n5,1,2,3,obj:7\n" in
  match observations_of_string s with
  | [ o ] ->
      Alcotest.(check int) "epoch" 5 o.Types.o_epoch;
      Alcotest.(check int) "one tag" 1 (List.length o.Types.o_read_tags)
  | l -> Alcotest.failf "expected one observation, got %d" (List.length l)

let test_replay_through_engine () =
  (* Serialized stream replayed through the engine gives identical
     events to the original stream. *)
  let wh = Rfid_sim.Warehouse.layout ~num_objects:6 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:73)
  in
  let original = Trace.observations trace in
  let replayed =
    observations_of_string (Trace_io.observations_to_string original)
  in
  let run stream =
    let engine =
      Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
        ~params:Params.default
        ~config:
          (Rfid_core.Config.create ~num_reader_particles:40 ~num_object_particles:60 ())
        ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:9 ()
    in
    Rfid_core.Engine.run engine stream
  in
  let ev1 = run original and ev2 = run replayed in
  Alcotest.(check int) "same event count" (List.length ev1) (List.length ev2);
  List.iter2
    (fun (a : Rfid_core.Event.t) (b : Rfid_core.Event.t) ->
      Alcotest.(check int) "same object" a.Rfid_core.Event.ev_obj b.Rfid_core.Event.ev_obj;
      Alcotest.(check bool) "same location (1e-4)" true
        (Rfid_geom.Vec3.dist_xy a.Rfid_core.Event.ev_loc b.Rfid_core.Event.ev_loc < 1e-3))
    ev1 ev2

let prop_random_roundtrip =
  let gen =
    QCheck.make
      ~print:(fun obs -> Trace_io.observations_to_string obs)
      QCheck.Gen.(
        let tag =
          oneof
            [
              map (fun i -> Types.Object_tag i) (int_bound 999);
              map (fun i -> Types.Shelf_tag i) (int_bound 99);
            ]
        in
        let vec =
          map3
            (fun x y z -> Util.vec3 x y z)
            (float_range (-100.) 100.) (float_range (-100.) 100.)
            (float_range (-5.) 5.)
        in
        list_size (int_range 0 20)
          (map2 (fun loc tags -> (loc, tags)) vec (list_size (int_range 0 5) tag))
        |> map (fun items ->
               List.mapi
                 (fun e (loc, tags) ->
                   { Types.o_epoch = e; o_reported_loc = loc; o_read_tags = tags })
                 items))
  in
  Util.qcheck ~count:100 "random observation streams roundtrip" gen (fun obs ->
      let back = observations_of_string (Trace_io.observations_to_string obs) in
      List.length back = List.length obs && List.for_all2 equal_obs obs back)

let suite =
  ( "trace_io",
    [
      Alcotest.test_case "string roundtrip" `Quick test_roundtrip_string;
      Alcotest.test_case "simulated-trace roundtrip" `Quick test_roundtrip_simulated;
      Alcotest.test_case "file roundtrip" `Quick test_roundtrip_files;
      Alcotest.test_case "malformed input rejected" `Quick test_malformed_rejected;
      Alcotest.test_case "messy but valid accepted" `Quick test_messy_but_valid_accepted;
      Alcotest.test_case "lenient reader" `Quick test_lenient_reader;
      Alcotest.test_case "comments skipped" `Quick test_comments_and_blank_lines_skipped;
      Alcotest.test_case "replay through engine" `Quick test_replay_through_engine;
      prop_random_roundtrip;
    ] )
