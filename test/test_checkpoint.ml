(* Checkpoint/resume: a restored engine must reproduce the
   uninterrupted event stream bit-identically, for every engine variant,
   including runs with degraded (dead-reckoned)
   epochs on both sides of the cut. *)
open Rfid_model

let scenario =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:5 () in
     let trace =
       Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
         ~object_locs:wh.Rfid_sim.Warehouse.object_locs
         ~start:(Rfid_sim.Warehouse.reader_start wh)
         ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
         ~config:(Rfid_sim.Trace_gen.default_config ())
         (Rfid_prob.Rng.create ~seed:29)
     in
     (wh, trace))

let config_for variant =
  Rfid_core.Config.create ~variant ~num_reader_particles:30 ~num_object_particles:40 ()

let make_engine ~variant =
  let wh, trace = Lazy.force scenario in
  Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
    ~config:(config_for variant)
    ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:23 ()

(* Degrade a few epochs straddling the cut, so dead-reckoning state is
   part of what the checkpoint must carry. *)
let step_one ~degraded engine (o : Types.observation) =
  if List.mem o.Types.o_epoch degraded then
    Rfid_core.Engine.step_degraded engine ~epoch:o.Types.o_epoch
  else Rfid_core.Engine.step engine o

let events_equal what (a : Rfid_core.Event.t list) (b : Rfid_core.Event.t list) =
  Alcotest.(check int) (what ^ ": event count") (List.length a) (List.length b);
  List.iteri
    (fun i (x : Rfid_core.Event.t) ->
      let y = List.nth b i in
      if x <> y then
        Alcotest.failf "%s: event %d differs:@ %a@ vs@ %a" what i Rfid_core.Event.pp x
          Rfid_core.Event.pp y)
    a

let resume_bit_identical variant =
  let wh, trace = Lazy.force scenario in
  let stream = Trace.observations trace in
  let n = List.length stream in
  let cut = n / 2 in
  let degraded = [ cut - 2; cut - 1; cut + 2 ] in
  let run_all engine stream =
    (* Bind the stepped events first: [@] evaluates right-to-left, and
       [flush] must not run before the steps. *)
    let stepped = List.concat_map (step_one ~degraded engine) stream in
    stepped @ Rfid_core.Engine.flush engine
  in
  (* Uninterrupted reference run. *)
  let reference = run_all (make_engine ~variant) stream in
  (* Interrupted run: first half, checkpoint to disk, restore, rest. *)
  let first, second =
    List.partition (fun (o : Types.observation) -> o.Types.o_epoch < cut) stream
  in
  let e1 = make_engine ~variant in
  let head = List.concat_map (step_one ~degraded e1) first in
  let path = Filename.temp_file "rfid_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rfid_robust.Checkpoint.save ~path (Rfid_core.Engine.snapshot e1);
      Alcotest.(check int) "snapshot epoch"
        (Rfid_core.Engine.epoch e1)
        (Rfid_core.Engine.snapshot_epoch (Rfid_robust.Checkpoint.load_exn ~path));
      (* The original engine keeps running: the snapshot must be a deep
         copy, unaffected by (and not affecting) e1's continuation. *)
      let tail_live = run_all e1 second in
      let e2 =
        Rfid_core.Engine.restore ~world:wh.Rfid_sim.Warehouse.world
          ~params:Params.default
          ~config:(config_for variant)
          (Rfid_robust.Checkpoint.load_exn ~path)
      in
      let tail_restored = run_all e2 second in
      events_equal "live continuation vs reference" reference (head @ tail_live);
      events_equal "restored continuation vs reference" reference (head @ tail_restored))

let test_resume_matrix () =
  List.iter resume_bit_identical
    [
      Rfid_core.Config.Factorized;
      Rfid_core.Config.Factorized_indexed;
      Rfid_core.Config.Factorized_compressed;
    ]

let test_corrupt_checkpoint_rejected () =
  let e = make_engine ~variant:Rfid_core.Config.Factorized_indexed in
  let path = Filename.temp_file "rfid_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rfid_robust.Checkpoint.save ~path (Rfid_core.Engine.snapshot e);
      (match Rfid_robust.Checkpoint.load ~path with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "pristine checkpoint rejected: %s" msg);
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let expect_error what contents' =
        let oc = open_out_bin path in
        output_string oc contents';
        close_out oc;
        match Rfid_robust.Checkpoint.load ~path with
        | Ok _ -> Alcotest.failf "%s: corrupted checkpoint accepted" what
        | Error msg ->
            Alcotest.(check bool) (what ^ ": message non-empty") true (msg <> "")
      in
      (* Flip one payload byte: the checksum must catch it. *)
      let flipped = Bytes.of_string contents in
      let pos = String.length contents - 10 in
      Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0xff));
      expect_error "bit flip" (Bytes.to_string flipped);
      (* Truncation. *)
      expect_error "truncation" (String.sub contents 0 (String.length contents - 20));
      (* Wrong version: rewrite the first header line. *)
      let nl = String.index contents '\n' in
      expect_error "wrong version"
        ("rfid_streams-checkpoint v999"
        ^ String.sub contents nl (String.length contents - nl));
      (* Not a checkpoint at all. *)
      expect_error "garbage" "not a checkpoint\nat all\n";
      (* Missing file. *)
      match Rfid_robust.Checkpoint.load ~path:(path ^ ".does-not-exist") with
      | Ok _ -> Alcotest.fail "missing file accepted"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Order rules: hits from the spatial index come back in an unspecified
   order, so neither the order shelf tags are listed in nor the order a
   checkpoint lists its index entries in may reach the state. *)

let encode_state engine = Rfid_robust.Codec.encode (Rfid_core.Engine.snapshot engine)

(* Forty shelf tags a quarter foot apart, so each probe hits many at
   once, each on a zero-area shelf of its own behind the tag-less real
   shelves. Permuting only those tag shelves
   reorders [World.shelf_tags] (and the shelf-tag index's insertion
   order), while location sampling and shelf clamping, which meet the
   real shelves first and in the same order, see the same world. *)
let tag_shelf_world ~permute =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:20 () in
  let real =
    Array.to_list (World.shelves wh.Rfid_sim.Warehouse.world)
    |> List.map (fun s -> { s with World.tag = None })
  in
  let front_x = (List.hd real).World.surface.Rfid_geom.Box2.min_x in
  let n = List.length real in
  let tags =
    List.init 40 (fun i ->
        let y = 0.125 +. (0.25 *. float_of_int i) in
        {
          World.shelf_id = n + i;
          surface = Rfid_geom.Box2.make ~min_x:front_x ~min_y:y ~max_x:front_x ~max_y:y;
          height = 0.;
          tag = Some (Rfid_geom.Vec3.make front_x y 0.);
        })
  in
  (wh, World.create (real @ permute tags))

let test_shelf_order_invariant () =
  let wh, world = tag_shelf_world ~permute:Fun.id in
  let _, permuted =
    tag_shelf_world ~permute:(fun l ->
        (* A fixed shuffle: odd positions first, each half reversed. *)
        let a = Array.of_list l in
        let h = Array.length a / 2 in
        List.init h (fun i -> a.((2 * h) - 1 - (2 * i)))
        @ List.init h (fun i -> a.((2 * h) - 2 - (2 * i))))
  in
  Alcotest.(check bool) "tag order differs" true
    (World.shelf_tags world <> World.shelf_tags permuted);
  let trace =
    Rfid_sim.Trace_gen.run ~world ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ())
      (Rfid_prob.Rng.create ~seed:31)
  in
  let shelf_reads =
    List.exists
      (fun (o : Types.observation) ->
        List.exists (function Types.Shelf_tag _ -> true | _ -> false) o.Types.o_read_tags)
      (Trace.observations trace)
  in
  Alcotest.(check bool) "trace reads shelf tags" true shelf_reads;
  (* With resampling all but off, reader log weights carry every
     epoch's shelf-tag sums forward, so a changed summation order shows
     in the state's last bits instead of vanishing in a resample. *)
  let run world =
    let engine =
      Rfid_core.Engine.create ~world ~params:Params.default
        ~config:
          (Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
             ~num_reader_particles:30 ~num_object_particles:40 ~resample_ess_ratio:1e-6 ())
        ~init_reader:trace.Trace.steps.(0).Trace.true_reader ~seed:23 ()
    in
    List.map
      (fun o ->
        ignore (Rfid_core.Engine.step engine o);
        encode_state engine)
      (Trace.observations trace)
  in
  Alcotest.(check bool) "encoded state bit-identical after every step" true
    (run world = run permuted)

(* A checkpoint lists its sensing-region entries in whatever order the
   writing build's index walked them (an R-tree's visit order, for
   older builds); restoring any order must continue identically. *)
let test_index_entry_order_invariant () =
  let wh, trace = Lazy.force scenario in
  let variant = Rfid_core.Config.Factorized_indexed in
  let stream = Trace.observations trace in
  let cut = List.length stream / 2 in
  let first, second =
    List.partition (fun (o : Types.observation) -> o.Types.o_epoch < cut) stream
  in
  let e = make_engine ~variant in
  List.iter (fun o -> ignore (Rfid_core.Engine.step e o)) first;
  let snap = Rfid_core.Engine.snapshot e in
  let map_entries f (s : Rfid_core.Engine.snapshot) =
    let fs = s.Rfid_core.Engine.es_filter in
    match fs.Rfid_core.Factored_filter.fs_index with
    | Some si ->
        let si_entries = f si.Rfid_core.Factored_filter.si_entries in
        {
          s with
          Rfid_core.Engine.es_filter =
            {
              fs with
              Rfid_core.Factored_filter.fs_index =
                Some { si with Rfid_core.Factored_filter.si_entries };
            };
        }
    | None -> Alcotest.fail "indexed snapshot without an index"
  in
  let entries = ref [] in
  ignore (map_entries (fun l -> entries := l; l) snap);
  Alcotest.(check bool) "several index entries" true (List.length !entries >= 3);
  let continue snap =
    let engine =
      Rfid_core.Engine.restore ~world:wh.Rfid_sim.Warehouse.world ~params:Params.default
        ~config:(config_for variant) snap
    in
    let evs = List.concat_map (Rfid_core.Engine.step engine) second in
    let evs = evs @ Rfid_core.Engine.flush engine in
    (* Entries restored first are listed first, so compare the final
       states with the index entries in one canonical order. *)
    (evs, Rfid_robust.Codec.encode (map_entries (List.sort compare) (Rfid_core.Engine.snapshot engine)))
  in
  let ref_events, ref_state = continue snap in
  let evs, state = continue (map_entries List.rev snap) in
  events_equal "permuted-entry restore" ref_events evs;
  Alcotest.(check bool) "final state bit-identical" true (ref_state = state)

let suite =
  ( "checkpoint",
    [
      Alcotest.test_case "resume matrix (every variant)" `Slow test_resume_matrix;
      Alcotest.test_case "corrupt checkpoint rejected" `Quick
        test_corrupt_checkpoint_rejected;
      Alcotest.test_case "shelf order does not reach the state" `Quick
        test_shelf_order_invariant;
      Alcotest.test_case "index entry order does not reach the state" `Quick
        test_index_entry_order_invariant;
    ] )
