(* Tests of the robustness layer: the ingest guard's per-fault
   repairs, fault injection, and degraded-mode inference. *)
open Rfid_model
open Rfid_robust

let obs e loc tags = { Types.o_epoch = e; o_reported_loc = loc; o_read_tags = tags }
let v = Util.vec3
let nan3 = Util.vec3 Float.nan 0. 0.

let small_scenario =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:4 () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
         ~config:(Rfid_sim.Trace_gen.default_config ())
         (Rfid_prob.Rng.create ~seed:41)
     in
     (wh, trace))

let small_engine ?(variant = Rfid_core.Config.Factorized_indexed) ?(seed = 11) () =
  let wh, trace = Lazy.force small_scenario in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
      ~config:
        (Rfid_core.Config.create ~variant ~num_reader_particles:30
           ~num_object_particles:40 ())
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed ()
  in
  (wh, trace, engine)

(* ------------------------------------------------------------------ *)
(* Ingest guard decisions                                              *)

let check_decision what expected actual =
  let show = function
    | Ingest.Accept o ->
        let l = o.Types.o_reported_loc in
        Printf.sprintf "Accept@%d (%g, %g, %g) %d tags" o.Types.o_epoch
          l.Rfid_geom.Vec3.x l.Rfid_geom.Vec3.y l.Rfid_geom.Vec3.z
          (List.length o.Types.o_read_tags)
    | Ingest.Degraded (e, tags) ->
        Printf.sprintf "Degraded@%d/%d" e (List.length tags)
    | Ingest.Rejected -> "Rejected"
    | Ingest.Halted (f, _) -> "Halted:" ^ Ingest.fault_name f
  in
  Alcotest.(check string) what (show expected) (show actual)

let count g fault = List.assoc fault (Ingest.counters g)
let total_faults g = List.fold_left (fun acc (_, n) -> acc + n) 0 (Ingest.counters g)
let all_faults = List.map fst (Ingest.counters (Ingest.create ()))

let test_guard_clean_passthrough () =
  let g = Ingest.create () in
  let o = obs 0 (v 1. 2. 0.) [ Types.Object_tag 1 ] in
  check_decision "clean accepted" (Ingest.Accept o) (Ingest.admit g o);
  let o1 = obs 1 (v 1. 2.1 0.) [] in
  check_decision "next accepted" (Ingest.Accept o1) (Ingest.admit g o1);
  Alcotest.(check int) "no faults" 0 (total_faults g)

let test_guard_epoch_faults () =
  (* Duplicates and negative epochs are rejected; out-of-order halts
     unless the guard drops it. *)
  let g = Ingest.create () in
  ignore (Ingest.admit g (obs 5 (v 0. 0. 0.) []));
  check_decision "duplicate rejected" Ingest.Rejected
    (Ingest.admit g (obs 5 (v 0. 0. 0.) []));
  check_decision "negative rejected" Ingest.Rejected
    (Ingest.admit g (obs (-1) (v 0. 0. 0.) []));
  (match Ingest.admit g (obs 3 (v 0. 0. 0.) []) with
  | Ingest.Halted (Ingest.Out_of_order_epoch, msg) ->
      Alcotest.(check bool) "message mentions epochs" true
        (String.length msg > 0)
  | d ->
      check_decision "out-of-order halts"
        (Ingest.Halted (Ingest.Out_of_order_epoch, "")) d);
  Alcotest.(check int) "duplicate counted" 1 (count g Ingest.Duplicate_epoch);
  Alcotest.(check int) "negative counted" 1 (count g Ingest.Negative_epoch);
  Alcotest.(check int) "ooo counted" 1 (count g Ingest.Out_of_order_epoch);
  (* A dropping guard rejects the late epoch and keeps its timeline. *)
  let g = Ingest.create ~drop_out_of_order:true () in
  ignore (Ingest.admit g (obs 5 (v 0. 0. 0.) []));
  check_decision "out-of-order rejected" Ingest.Rejected
    (Ingest.admit g (obs 3 (v 0. 0. 0.) []));
  Alcotest.(check int) "dropped ooo counted" 1
    (count g Ingest.Out_of_order_epoch);
  let o = obs 6 (v 0. 0. 0.) [] in
  check_decision "timeline kept" (Ingest.Accept o) (Ingest.admit g o)

let test_guard_gap () =
  let g = Ingest.create () in
  ignore (Ingest.admit g (obs 0 (v 0. 0. 0.) []));
  (* A jump of exactly 100 epochs is not a gap. *)
  (match Ingest.admit g (obs 100 (v 0. 0. 0.) []) with
  | Ingest.Accept o -> Alcotest.(check int) "jump kept epoch" 100 o.Types.o_epoch
  | _ -> Alcotest.fail "jump must be admitted");
  Alcotest.(check int) "100 is no gap" 0 (count g Ingest.Epoch_gap);
  (* One more is: counted, but admitted unchanged. *)
  (match Ingest.admit g (obs 201 (v 0. 0. 0.) []) with
  | Ingest.Accept o -> Alcotest.(check int) "gap kept epoch" 201 o.Types.o_epoch
  | _ -> Alcotest.fail "gap must be admitted");
  Alcotest.(check int) "gap counted" 1 (count g Ingest.Epoch_gap)

let test_guard_fix_faults () =
  (* Non-finite fix: the epoch survives as degraded. *)
  let g = Ingest.create () in
  ignore (Ingest.admit g (obs 0 (v 1. 1. 0.) []));
  check_decision "nan fix degrades"
    (Ingest.Degraded (1, [ Types.Object_tag 2 ]))
    (Ingest.admit g (obs 1 nan3 [ Types.Object_tag 2 ]));
  (* The degraded epoch advanced the timeline: same epoch again is now
     a duplicate. *)
  check_decision "timeline advanced" Ingest.Rejected (Ingest.admit g (obs 1 nan3 []));
  (* The same holds for the very first record. *)
  let g = Ingest.create () in
  check_decision "first fix non-finite" (Ingest.Degraded (0, []))
    (Ingest.admit g (obs 0 nan3 []))

let test_guard_bounds () =
  let bounds = Rfid_geom.Box2.make ~min_x:0. ~min_y:0. ~max_x:10. ~max_y:10. in
  let g = Ingest.create ~bounds () in
  (* Inside the 10 ft margin: untouched. *)
  (match Ingest.admit g (obs 0 (v 19.5 5. 0.) []) with
  | Ingest.Accept o ->
      Alcotest.(check (float 0.)) "margin respected" 19.5
        o.Types.o_reported_loc.Rfid_geom.Vec3.x
  | _ -> Alcotest.fail "in-margin fix must pass");
  Alcotest.(check int) "in-margin fix is no fault" 0
    (count g Ingest.Out_of_bounds_fix);
  (* Far outside: clamped onto the inflated box. *)
  (match Ingest.admit g (obs 1 (v 500. (-500.) 0.) []) with
  | Ingest.Accept o ->
      Alcotest.(check (float 1e-9)) "x clamped" 20. o.Types.o_reported_loc.Rfid_geom.Vec3.x;
      Alcotest.(check (float 1e-9)) "y clamped" (-10.)
        o.Types.o_reported_loc.Rfid_geom.Vec3.y
  | _ -> Alcotest.fail "out-of-bounds fix must be clamped");
  Alcotest.(check int) "bounds fault counted" 1 (count g Ingest.Out_of_bounds_fix)

let test_guard_tags () =
  let g = Ingest.create ~max_object_id:10 () in
  (* Invalid tags stripped, valid ones kept. *)
  (match
     Ingest.admit g
       (obs 0 (v 0. 0. 0.)
          [ Types.Object_tag 3; Types.Object_tag 999; Types.Shelf_tag (-1) ])
   with
  | Ingest.Accept o ->
      Alcotest.(check int) "only valid tag kept" 1 (List.length o.Types.o_read_tags);
      Alcotest.(check bool) "the right one" true
        (List.mem (Types.Object_tag 3) o.Types.o_read_tags)
  | _ -> Alcotest.fail "tag fault must accept");
  Alcotest.(check int) "tag fault counted" 1 (count g Ingest.Out_of_range_tag);
  (* Boundary: id = max_object_id - 1 is valid, id = max_object_id is not. *)
  (match Ingest.admit g (obs 1 (v 0. 0. 0.) [ Types.Object_tag 9 ]) with
  | Ingest.Accept o -> Alcotest.(check int) "boundary id kept" 1 (List.length o.Types.o_read_tags)
  | _ -> Alcotest.fail "boundary id must pass");
  (* A reading of nothing but bad tags is still an epoch. *)
  check_decision "all tags stripped"
    (Ingest.Accept (obs 2 (v 0. 0. 0.) []))
    (Ingest.admit g (obs 2 (v 0. 0. 0.) [ Types.Object_tag 10 ]))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let test_faults_deterministic () =
  let _, trace = Lazy.force small_scenario in
  let stream = Trace.observations trace in
  let spec =
    Rfid_sim.Faults.make ~drop_prob:0.2 ~duplicate_prob:0.1 ~nan_fix_prob:0.1
      ~spurious_tag_prob:0.1 ~reorder_prob:0.1 ~outage:(5, 5) ()
  in
  let a = Rfid_sim.Faults.apply spec ~seed:3 stream in
  let b = Rfid_sim.Faults.apply spec ~seed:3 stream in
  (* [compare], not [=]: the corrupted streams contain NaN fixes. *)
  Alcotest.(check bool) "same seed, same corruption" true (compare a b = 0);
  let c = Rfid_sim.Faults.apply spec ~seed:4 stream in
  Alcotest.(check bool) "different seed differs" true (compare a c <> 0);
  Alcotest.(check bool) "identity spec" true
    (compare (Rfid_sim.Faults.apply (Rfid_sim.Faults.make ()) ~seed:3 stream) stream = 0);
  (* The outage window really is NaN. *)
  let in_outage =
    List.filter (fun (o : Types.observation) -> o.Types.o_epoch >= 5 && o.Types.o_epoch < 10) a
  in
  Alcotest.(check bool) "outage fixes are non-finite" true
    (in_outage <> []
    && List.for_all
         (fun (o : Types.observation) ->
           Float.is_nan o.Types.o_reported_loc.Rfid_geom.Vec3.x)
         in_outage);
  Util.check_raises_invalid "bad probability" (fun () ->
      ignore (Rfid_sim.Faults.make ~drop_prob:1.5 ()))

(* ------------------------------------------------------------------ *)
(* Fault matrix: every fault kind x both out-of-order choices, with the
   exact decision the faulty record gets.                              *)

let clean e = obs e (v (float_of_int e) 1. 0.) [ Types.Object_tag 0 ]

(* One record with [fault], to follow clean epochs 0-5. *)
let faulty_record = function
  | Ingest.Nonfinite_fix -> obs 6 nan3 [ Types.Object_tag 0 ]
  | Ingest.Out_of_bounds_fix -> obs 6 (v 1e5 1e5 0.) [ Types.Object_tag 0 ]
  | Ingest.Negative_epoch -> obs (-3) (v 0. 0. 0.) []
  | Ingest.Duplicate_epoch -> clean 5
  | Ingest.Out_of_order_epoch -> obs 2 (v 2. 1. 0.) []
  | Ingest.Epoch_gap -> obs 500 (v 6. 1. 0.) [ Types.Object_tag 0 ]
  | Ingest.Out_of_range_tag ->
      obs 6 (v 6. 1. 0.) [ Types.Object_tag 0; Types.Object_tag 99999 ]

let expected_decision ~bounds ~drop_out_of_order fault =
  let r = faulty_record fault in
  match fault with
  | Ingest.Nonfinite_fix -> Ingest.Degraded (6, [ Types.Object_tag 0 ])
  | Ingest.Out_of_bounds_fix ->
      Ingest.Accept
        {
          r with
          Types.o_reported_loc =
            v (bounds.Rfid_geom.Box2.max_x +. 10.) (bounds.Rfid_geom.Box2.max_y +. 10.) 0.;
        }
  | Ingest.Negative_epoch | Ingest.Duplicate_epoch -> Ingest.Rejected
  | Ingest.Out_of_order_epoch ->
      if drop_out_of_order then Ingest.Rejected
      else Ingest.Halted (Ingest.Out_of_order_epoch, "")
  | Ingest.Epoch_gap -> Ingest.Accept r
  | Ingest.Out_of_range_tag -> Ingest.Accept { r with Types.o_read_tags = [ Types.Object_tag 0 ] }

(* Clean epochs 0-5, the faulty record, then five clean epochs after it. *)
let stream_with fault =
  let r = faulty_record fault in
  let next = max 7 (r.Types.o_epoch + 1) in
  List.init 6 clean @ [ r ] @ List.init 5 (fun i -> clean (next + i))

let test_fault_matrix () =
  let wh, _ = Lazy.force small_scenario in
  let bounds = World.bounding_box wh.Rfid_sim.Warehouse.world in
  List.iter
    (fun fault ->
      List.iter
        (fun drop_out_of_order ->
          let what =
            Printf.sprintf "%s x drop_out_of_order=%b" (Ingest.fault_name fault)
              drop_out_of_order
          in
          let guard () = Ingest.create ~drop_out_of_order ~bounds ~max_object_id:4 () in
          let g = guard () in
          List.iter
            (fun e ->
              let o = clean e in
              check_decision (what ^ ": clean prefix") (Ingest.Accept o) (Ingest.admit g o))
            [ 0; 1; 2; 3; 4; 5 ];
          check_decision what
            (expected_decision ~bounds ~drop_out_of_order fault)
            (Ingest.admit g (faulty_record fault));
          Alcotest.(check int) (what ^ ": fault counted once") 1 (count g fault);
          Alcotest.(check int) (what ^ ": no other fault") 1 (total_faults g);
          (* The whole stream through a real engine: only the halting
             guard stops, and with an error value, not an exception. *)
          let _, _, engine = small_engine ~seed:17 () in
          match Ingest.run_engine (guard ()) engine (stream_with fault) with
          | Ok _ ->
              Alcotest.(check bool) (what ^ ": runs to the end") false
                (fault = Ingest.Out_of_order_epoch && not drop_out_of_order)
          | Error (f, _) ->
              Alcotest.(check string) (what ^ ": halt names the fault")
                (Ingest.fault_name Ingest.Out_of_order_epoch) (Ingest.fault_name f);
              Alcotest.(check bool) (what ^ ": only the halting guard stops") false
                drop_out_of_order)
        [ false; true ])
    all_faults

(* ------------------------------------------------------------------ *)
(* Degraded-mode inference                                             *)

let test_degraded_mode () =
  let _, trace, engine = small_engine () in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let outage_lo = n / 3 and outage_hi = (n / 3) + 15 in
  let events = ref [] in
  let widened_before = ref None in
  List.iter
    (fun (o : Types.observation) ->
      let e = o.Types.o_epoch in
      if e >= outage_lo && e < outage_hi then begin
        if e = outage_lo then
          widened_before := Rfid_core.Engine.estimate engine 0;
        events := List.rev_append (Rfid_core.Engine.step_degraded engine ~epoch:e) !events
      end
      else events := List.rev_append (Rfid_core.Engine.step engine o) !events)
    stream;
  events := List.rev_append (Rfid_core.Engine.flush engine) !events;
  let events = List.rev !events in
  let stats = Rfid_core.Engine.stats engine in
  Alcotest.(check int) "degraded epochs counted" 15
    stats.Rfid_core.Engine.degraded_epochs;
  Alcotest.(check int) "degraded events counted"
    stats.Rfid_core.Engine.degraded_events
    (List.length (List.filter (fun e -> e.Rfid_core.Event.ev_degraded) events));
  (* Posterior widening: after 15 dead-reckoned epochs (widen_after is
     10), object 0's posterior must not have tightened. *)
  (match (!widened_before, Rfid_core.Engine.estimate engine 0) with
  | Some (_, cov0), Some (_, cov1) ->
      let spread c = c.(0).(0) +. c.(1).(1) in
      Alcotest.(check bool)
        (Printf.sprintf "posterior widened (%.4f -> %.4f)" (spread cov0) (spread cov1))
        true
        (spread cov1 > spread cov0)
  | _ -> ());
  (* Dead reckoning must still advance the clock. *)
  Alcotest.(check bool) "epoch advanced" true
    (Rfid_core.Engine.epoch engine >= outage_hi - 1);
  (* step_degraded polices epoch order like step. *)
  Util.check_raises_invalid "degraded epoch regression" (fun () ->
      ignore (Rfid_core.Engine.step_degraded engine ~epoch:0))

let test_degraded_recovery () =
  (* After an outage, fresh fixes must pull the estimates back in: the
     engine keeps producing events and does not blow up numerically. *)
  let _, trace, engine = small_engine ~variant:Rfid_core.Config.Factorized_compressed () in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let stepped =
    List.concat_map
      (fun (o : Types.observation) ->
        if o.Types.o_epoch >= n / 2 && o.Types.o_epoch < (n / 2) + 8 then
          Rfid_core.Engine.step_degraded engine ~epoch:o.Types.o_epoch
        else Rfid_core.Engine.step engine o)
      stream
  in
  let events = stepped @ Rfid_core.Engine.flush engine in
  Alcotest.(check bool) "events produced" true (events <> []);
  List.iter
    (fun (ev : Rfid_core.Event.t) ->
      Alcotest.(check bool) "event locations finite" true
        (Float.is_finite ev.Rfid_core.Event.ev_loc.Rfid_geom.Vec3.x
        && Float.is_finite ev.Rfid_core.Event.ev_loc.Rfid_geom.Vec3.y))
    events

let test_degraded_shelf_tag_localization () =
  (* During an outage the fix is gone but validated shelf-tag reads
     survive: feeding them to [step_degraded ~tags] must anchor the
     reader posterior near the read tag, while a blind twin restored
     from the same snapshot drifts on dead reckoning alone. *)
  let wh, trace = Lazy.force small_scenario in
  let world = wh.Rfid_sim.Warehouse.world in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:30 ~num_object_particles:40 ()
  in
  let engine =
    Rfid_core.Engine.create ~world ~params:Params.default ~config
      ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:11 ()
  in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let outage_lo = n / 3 and outage_len = 20 in
  List.iter
    (fun (o : Types.observation) ->
      if o.Types.o_epoch < outage_lo then ignore (Rfid_core.Engine.step engine o))
    stream;
  (* Twins from one snapshot: identical state, identical RNG. *)
  let snap = Rfid_core.Engine.snapshot engine in
  let restore () =
    Rfid_core.Engine.restore ~world ~params:Params.default ~config snap
  in
  let informed = restore () and blind = restore () in
  let nearest_tag e =
    let loc = trace.Trace.steps.(e).Trace.true_reader.Reader_state.loc in
    List.fold_left
      (fun (bt, bl) (t, l) ->
        if Rfid_geom.Vec3.dist_xy loc l < Rfid_geom.Vec3.dist_xy loc bl then (t, l)
        else (bt, bl))
      (List.hd (World.shelf_tags world))
      (World.shelf_tags world)
  in
  let informed_events = ref [] in
  for e = outage_lo to outage_lo + outage_len - 1 do
    let tag, _ = nearest_tag e in
    informed_events :=
      List.rev_append
        (Rfid_core.Engine.step_degraded ~tags:[ tag ] informed ~epoch:e)
        !informed_events;
    ignore (Rfid_core.Engine.step_degraded blind ~epoch:e)
  done;
  List.iter
    (fun (ev : Rfid_core.Event.t) ->
      Alcotest.(check bool) "outage events flagged degraded" true
        ev.Rfid_core.Event.ev_degraded)
    !informed_events;
  let last = outage_lo + outage_len - 1 in
  let _, anchor = nearest_tag last in
  let d engine =
    Rfid_geom.Vec3.dist_xy (Rfid_core.Engine.reader_estimate engine) anchor
  in
  let di = d informed and db = d blind in
  Alcotest.(check bool)
    (Printf.sprintf "shelf tags localize the reader (%.2f < %.2f)" di db)
    true (di < db)

let suite =
  ( "robust",
    [
      Alcotest.test_case "guard passthrough" `Quick test_guard_clean_passthrough;
      Alcotest.test_case "guard epoch faults" `Quick test_guard_epoch_faults;
      Alcotest.test_case "guard gap" `Quick test_guard_gap;
      Alcotest.test_case "guard fix faults" `Quick test_guard_fix_faults;
      Alcotest.test_case "guard bounds" `Quick test_guard_bounds;
      Alcotest.test_case "guard tags" `Quick test_guard_tags;
      Alcotest.test_case "fault injection deterministic" `Quick test_faults_deterministic;
      Alcotest.test_case "fault matrix" `Slow test_fault_matrix;
      Alcotest.test_case "degraded mode" `Quick test_degraded_mode;
      Alcotest.test_case "degraded recovery" `Quick test_degraded_recovery;
      Alcotest.test_case "degraded shelf-tag localization" `Quick
        test_degraded_shelf_tag_localization;
    ] )
