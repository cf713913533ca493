(* Rfid_robust.Session: the events-log helpers it owns, and the
   start / journal / checkpoint / recover cycle that `rfid_clean infer`
   and `rfid_clean serve` both run through it. *)
open Rfid_model
module Session = Rfid_robust.Session
module Event = Rfid_core.Event
module Engine = Rfid_core.Engine
module Bootstrap = Rfid_serve.Bootstrap

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file ?(append = false) path s =
  let flags = [ Open_wronly; Open_creat; Open_binary ] in
  let oc = open_out_gen (if append then Open_append :: flags else Open_trunc :: flags) 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "rfid_session" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* The durable cycle *)

let boot = lazy (Bootstrap.make ~objects:4 ~seed:7 ~particles:30 ())

let observations =
  lazy
    (let wh = Rfid_sim.Warehouse.layout ~num_objects:4 () in
     Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
       ~object_locs:wh.Rfid_sim.Warehouse.object_locs
       ~start:(Rfid_sim.Warehouse.reader_start wh)
       ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:3)
       ~config:
         (Rfid_sim.Trace_gen.default_config ~sensor:(Rfid_sim.Truth_sensor.cone ()) ())
       (Rfid_prob.Rng.create ~seed:7)
     |> Trace.observations
     |> List.filteri (fun i _ -> i < 200))

let durable_config dir ~recover =
  let p = Filename.concat dir in
  {
    Session.checkpoint = Some (p "ck");
    checkpoint_keep = 2;
    wal = Some (p "wal.log");
    wal_fsync_every = 3;
    events = Some (p "events.log");
    recover;
  }

let start config =
  let boot = Lazy.force boot in
  let guard = Bootstrap.fresh_guard boot in
  (Bootstrap.start_session boot ~guard config, guard)

let checkpoint_every = 20

(* Feed observations the way both commands do: step through the guard,
   log what comes out, checkpoint on the admitted-epoch cadence. *)
let feed (s, guard) obs =
  let engine = Session.engine s in
  let admitted = ref 0 in
  List.iter
    (fun o ->
      let before = Engine.epoch engine in
      match Rfid_robust.Ingest.step_engine guard engine o with
      | Error (_, msg) -> Alcotest.failf "guard halted: %s" msg
      | Ok evs ->
          Session.log_events s evs;
          if Engine.epoch engine > before then begin
            incr admitted;
            if !admitted mod checkpoint_every = 0 then Session.checkpoint s
          end)
    obs

let finish (s, _) =
  let flushed = Session.finish s in
  Session.close s;
  flushed

let same_file ~golden_dir ~dir name =
  Alcotest.(check string) (name ^ " byte-identical to the uninterrupted session")
    (read_file (Filename.concat golden_dir name))
    (read_file (Filename.concat dir name))

(* ------------------------------------------------------------------ *)
(* Events-log truncation: a recovering start trims the log to the
   checkpoint's epoch. *)

let line e = Printf.sprintf "t=%d obj=%d loc=(1.000, 2.000, 0.000) (sd_xy=0.250)\n" e (e mod 3)

(* Checkpoint an engine stepped to [epoch], give it the events log
   [before] (none if [None]), and return the log a recovering start
   leaves. *)
let recovered_log ~epoch before =
  with_tmp_dir (fun dir ->
      let config =
        { (durable_config dir ~recover:true) with Session.checkpoint_keep = 1; wal = None }
      in
      let boot = Lazy.force boot in
      let engine = Bootstrap.fresh_engine boot in
      let guard = Bootstrap.fresh_guard boot in
      List.iter
        (fun (o : Types.observation) ->
          if o.Types.o_epoch <= epoch then
            ignore (Rfid_robust.Ingest.step_engine guard engine o))
        (Lazy.force observations);
      Alcotest.(check int) "checkpointed epoch" epoch (Engine.epoch engine);
      Rfid_robust.Checkpoint.save ~path:(Option.get config.Session.checkpoint)
        (Engine.snapshot engine);
      let path = Option.get config.Session.events in
      Option.iter (write_file path) before;
      let s, _ = start config in
      Session.close s;
      read_file path)

let check_truncation what ~epoch ~before ~after =
  Alcotest.(check string) what after (recovered_log ~epoch (Some before))

let test_truncate_torn_line () =
  check_truncation "torn last line dropped" ~epoch:10
    ~before:(line 1 ^ line 2 ^ "t=3 obj=0 loc=(1.0")
    ~after:(line 1 ^ line 2)

let test_truncate_past_epoch () =
  check_truncation "lines past the checkpoint dropped" ~epoch:2
    ~before:(line 1 ^ line 2 ^ line 2 ^ line 3 ^ line 4)
    ~after:(line 1 ^ line 2 ^ line 2)

let test_truncate_flush_marker () =
  check_truncation "stops at the flush marker" ~epoch:10
    ~before:(line 1 ^ line 2 ^ "# flush\n" ^ line 2)
    ~after:(line 1 ^ line 2)

let test_truncate_missing_file () =
  Alcotest.(check string) "an empty log is started" "" (recovered_log ~epoch:5 None)

(* ------------------------------------------------------------------ *)
(* Events-log parsing: every line {!Session.log_events} writes reads
   back through {!Session.logged_events}. *)

let pp_line ev = Format.asprintf "%a" Event.pp ev

(* Log [evs] in a fresh session, append the raw [extra] lines, and
   read the log back. *)
let round_trip ?(extra = []) evs =
  with_tmp_dir (fun dir ->
      let config = { (durable_config dir ~recover:false) with Session.checkpoint = None; wal = None } in
      let s, _ = start config in
      Session.log_events s evs;
      List.iter
        (fun l -> write_file ~append:true (Option.get config.Session.events) (l ^ "\n"))
        extra;
      let back = Session.logged_events s in
      Session.close s;
      back)

let test_parse_examples () =
  let loc = Rfid_geom.Vec3.make (-3.25) 17.5 0.001 in
  let cov = [| [| 0.3; 0.1; 0. |]; [| 0.1; 0.7; 0. |]; [| 0.; 0.; 0.2 |] |] in
  let evs =
    [
      Event.make ~epoch:0 ~obj:0 ~loc ();
      Event.make ~epoch:12 ~obj:3 ~loc ~cov ();
      Event.make ~epoch:99 ~obj:7 ~loc ~degraded:true ();
      Event.make ~epoch:1234 ~obj:15 ~loc ~cov ~degraded:true ();
    ]
  in
  Alcotest.(check (list string)) "re-printed byte for byte, other lines skipped"
    (List.map pp_line evs)
    (List.map pp_line (round_trip ~extra:[ ""; "   "; "# flush"; "garbage"; "t=3 obj=" ] evs))

let gen_event =
  QCheck.Gen.(
    let coord = float_range (-500.) 500. in
    map
      (fun ((epoch, obj), (x, y, z), (sd, degraded)) ->
        let cov =
          Option.map (fun s -> [| [| s; 0.; 0. |]; [| 0.; s; 0. |]; [| 0.; 0.; 0. |] |]) sd
        in
        Event.make ~epoch ~obj ~loc:(Rfid_geom.Vec3.make x y z) ?cov ~degraded ())
      (triple
         (pair (int_bound 100_000) (int_bound 5000))
         (triple coord coord coord)
         (pair (opt (float_range 0. 40.)) bool)))

let prop_round_trip =
  Util.qcheck ~count:500 "Event.pp -> parse -> Event.pp is the identity"
    (QCheck.make ~print:pp_line gen_event) (fun ev ->
      List.map pp_line (round_trip [ ev ]) = [ pp_line ev ])

(* ------------------------------------------------------------------ *)
(* Recovery *)

let test_recover_matches_uninterrupted () =
  let obs = Lazy.force observations in
  with_tmp_dir (fun dir ->
      let golden_dir = Filename.concat dir "golden" and victim_dir = Filename.concat dir "victim" in
      Unix.mkdir golden_dir 0o755;
      Unix.mkdir victim_dir 0o755;
      let golden = durable_config golden_dir ~recover:false in
      let g = start golden in
      feed g obs;
      ignore (finish g);
      (* Victim: stop five epochs past the fourth checkpoint (epoch 79),
         after events at 67-81, leaving a torn event line and a torn WAL
         record behind, as a crash would. *)
      let victim = durable_config victim_dir ~recover:false in
      let v = start victim in
      let cut = 85 in
      feed v (List.filteri (fun i _ -> i < cut) obs);
      let crashed_epoch = Engine.epoch (Session.engine (fst v)) in
      Session.close (fst v);
      write_file ~append:true (Filename.concat victim_dir "events.log") "t=999 obj=1 loc=(1.0";
      write_file ~append:true (Filename.concat victim_dir "wal.log") "RWL1\x40\x00";
      let recovering = durable_config victim_dir ~recover:true in
      let r = start recovering in
      Alcotest.(check int) "WAL replay reaches the crashed epoch" crashed_epoch
        (Engine.epoch (Session.engine (fst r)));
      Alcotest.(check bool) "the replay regenerated events" true
        (Session.replayed (fst r) <> []);
      Alcotest.(check string) "logged events re-print the log"
        (read_file (Filename.concat victim_dir "events.log"))
        (String.concat "" (List.map (fun ev -> pp_line ev ^ "\n") (Session.logged_events (fst r))));
      (* Re-feed the whole trace: the guard drops what the log already has. *)
      feed r obs;
      ignore (finish r);
      let same = same_file ~golden_dir ~dir:victim_dir in
      (* Each WAL entry journaled exactly once: replayed entries are not
         logged again, re-fed ones are dropped before the journal. *)
      same "wal.log";
      same "events.log")

(* Ends during the second pass, before the reports it scheduled fall
   due, so the end-of-stream flush has reports to emit. *)
let flushing_obs = lazy (List.filteri (fun i _ -> i < 130) (Lazy.force observations))

(* A run that completed and is then recovered anyway (killed while it
   stayed up with nothing left to write): the last checkpoint predates
   the flush, so recovery trims the flush events at the marker and the
   second finish regenerates them. *)
let test_recover_after_finish () =
  let obs = Lazy.force flushing_obs in
  with_tmp_dir (fun dir ->
      let golden_dir = Filename.concat dir "golden" and done_dir = Filename.concat dir "done" in
      Unix.mkdir golden_dir 0o755;
      Unix.mkdir done_dir 0o755;
      List.iter
        (fun d ->
          let s = start (durable_config d ~recover:false) in
          feed s obs;
          Alcotest.(check bool) "the flush emits events" true (finish s <> []))
        [ golden_dir; done_dir ];
      let r = start (durable_config done_dir ~recover:true) in
      feed r obs;
      ignore (finish r);
      same_file ~golden_dir ~dir:done_dir "events.log")

(* The same for the server: its DRAIN runs through Core's hooks. *)
let test_recover_after_drain () =
  let obs = Lazy.force flushing_obs in
  let serve dir ~recover =
    let config = durable_config dir ~recover in
    let s, guard = start config in
    let hooks =
      {
        Rfid_serve.Core.on_events = Session.log_events s;
        on_flush_mark = (fun () -> Session.flush_mark s);
        on_admitted = ignore;
        on_checkpoint = (fun _ -> Session.checkpoint s);
      }
    in
    let core =
      Rfid_serve.Core.create ~guard ~engine:(Session.engine s)
        ~num_objects:(Bootstrap.num_objects (Lazy.force boot)) ~admit_cap:(List.length obs)
        ~checkpoint_every ~hooks ()
    in
    List.iter
      (fun o ->
        ignore (Rfid_serve.Core.handle_line core ("PUT " ^ Trace_io.observation_to_line o)))
      obs;
    Rfid_serve.Core.drain core;
    Session.close s
  in
  with_tmp_dir (fun dir ->
      let golden_dir = Filename.concat dir "golden" and done_dir = Filename.concat dir "done" in
      Unix.mkdir golden_dir 0o755;
      Unix.mkdir done_dir 0o755;
      serve golden_dir ~recover:false;
      serve done_dir ~recover:false;
      serve done_dir ~recover:true;
      let rec after_mark = function
        | "# flush" :: rest -> List.filter (( <> ) "") rest
        | _ :: rest -> after_mark rest
        | [] -> []
      in
      Alcotest.(check bool) "the flush emits events" true
        (after_mark (String.split_on_char '\n' (read_file (Filename.concat golden_dir "events.log")))
        <> []);
      same_file ~golden_dir ~dir:done_dir "events.log")

let test_fresh_run_clears_stale_checkpoints () =
  with_tmp_dir (fun dir ->
      let file =
        {
          (durable_config dir ~recover:false) with
          Session.checkpoint_keep = 1;
          wal = None;
          events = None;
        }
      in
      write_file (Filename.concat dir "ck") "stale";
      write_file (Filename.concat dir "ck.tmp") "stale";
      let s, _ = start file in
      Alcotest.(check bool) "single file removed" false (Sys.file_exists (Filename.concat dir "ck"));
      Alcotest.(check bool) "temp removed" false (Sys.file_exists (Filename.concat dir "ck.tmp"));
      Session.checkpoint s;
      Session.close s;
      Alcotest.(check bool) "keep 1 writes a single file" true
        (Sys.file_exists (Filename.concat dir "ck") && not (Sys.is_directory (Filename.concat dir "ck"))))

let suite =
  ( "session",
    [
      Alcotest.test_case "truncate: torn last line" `Quick test_truncate_torn_line;
      Alcotest.test_case "truncate: past the checkpoint epoch" `Quick test_truncate_past_epoch;
      Alcotest.test_case "truncate: stops at # flush" `Quick test_truncate_flush_marker;
      Alcotest.test_case "truncate: missing file" `Quick test_truncate_missing_file;
      Alcotest.test_case "parse: examples round-trip" `Quick test_parse_examples;
      prop_round_trip;
      Alcotest.test_case "fresh run clears stale checkpoints" `Quick
        test_fresh_run_clears_stale_checkpoints;
      Alcotest.test_case "recover matches uninterrupted" `Quick
        test_recover_matches_uninterrupted;
      Alcotest.test_case "recover after finish" `Quick test_recover_after_finish;
      Alcotest.test_case "recover after DRAIN" `Quick test_recover_after_drain;
    ] )
