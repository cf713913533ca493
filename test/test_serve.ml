(* The serving layer: framing, the bounded admission queue, the
   posterior query layer, the protocol state machine — and the
   PROTOCOL.md conformance runner, which executes every `session`
   block of the spec verbatim against Rfid_serve.Core and compares
   replies byte for byte. *)

open Rfid_serve

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_framing_lines () =
  let b = Framing.create_buffer () in
  Alcotest.(check (list string))
    "two lines, one partial"
    [ "alpha"; "beta" ]
    (Framing.feed b "alpha\nbeta\ngam"
    |> List.map (function Framing.Line l -> l | Framing.Overflow -> "<overflow>"));
  Alcotest.(check int) "partial buffered" 3 (Framing.pending_bytes b);
  Alcotest.(check (list string))
    "completion joins the partial" [ "gamma" ]
    (Framing.feed b "ma\n"
    |> List.map (function Framing.Line l -> l | Framing.Overflow -> "<overflow>"))

let test_framing_crlf () =
  let b = Framing.create_buffer () in
  Alcotest.(check (list string))
    "CRLF stripped, empty line kept" [ "one"; ""; "two" ]
    (Framing.feed b "one\r\n\r\ntwo\n"
    |> List.map (function Framing.Line l -> l | Framing.Overflow -> "<overflow>"))

let test_framing_overflow () =
  let b = Framing.create_buffer () in
  let big = String.make (Framing.max_line_bytes + 10) 'x' in
  let events = Framing.feed b (big ^ "\nafter\n") in
  (match events with
  | [ Framing.Overflow; Framing.Line "after" ] -> ()
  | _ -> Alcotest.fail "expected [Overflow; Line after]");
  Alcotest.(check int) "buffer drained" 0 (Framing.pending_bytes b)

let test_float_str () =
  List.iter
    (fun v ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "round-trips %h" v)
        v
        (float_of_string (Framing.float_str v)))
    [ 0.; 1.; -1.; 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308;
      4.9406564584124654e-324; 2.496219962922915; -0.00035816813938 ];
  Alcotest.(check string) "nan" "nan" (Framing.float_str Float.nan);
  Alcotest.(check string) "inf" "inf" (Framing.float_str Float.infinity)

(* The reply rule as the libc chain it was first written as: the first
   of %.15g, %.16g, %.17g that reads back. [Framing.float_str] derives
   the same bytes from one conversion; this is the reference the
   byte-identity checks below (and the fuzzer's float target) hold it
   to. *)
let printf_float_str v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p v in
      if float_of_string s = v then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> (
        match try_prec 16 with Some s -> s | None -> Printf.sprintf "%.17g" v)

let check_float_bytes what vs =
  List.iter
    (fun v ->
      let want = printf_float_str v and got = Framing.float_str v in
      if got <> want then
        Alcotest.failf "%s: float_str %h = %S, printf chain says %S" what v got
          want)
    vs

let with_neighbours vs =
  List.concat_map (fun v -> [ Float.pred v; v; Float.succ v ]) vs

let test_float_bytes_edges () =
  check_float_bytes "specials"
    [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity ];
  check_float_bytes "powers of two"
    (with_neighbours (List.init (1023 + 1074 + 1) (fun i -> Float.ldexp 1. (i - 1074))));
  check_float_bytes "subnormals"
    (List.concat_map
       (fun bits ->
         let v = Int64.float_of_bits bits in
         [ v; -.v ])
       [ 1L; 2L; 3L; 0xFFFL; 0x8_0000_0000L; 0x000F_FFFF_FFFF_FFFFL;
         0x0008_0000_0000_0001L ]);
  check_float_bytes "around 1e15, 1e16, 1e17"
    (with_neighbours
       [ 1e15; 1e16; 1e17; 999999999999999.; 9999999999999998.;
         99999999999999984.; 1e15 +. 1.; 1e16 +. 2. ]);
  check_float_bytes "%g style switch"
    (with_neighbours
       [ 1e-4; 1e-5; 0.0001234; 0.00001234; 9.99999e-5; 0.000099999999999999999 ]);
  check_float_bytes "integers"
    (List.concat_map
       (fun i -> [ float_of_int i; -.float_of_int i ])
       (List.init 2000 Fun.id @ [ 123456789; 1 lsl 52; 1 lsl 53; (1 lsl 53) + 1; max_int ]));
  check_float_bytes "extremes"
    (with_neighbours [ Float.max_float; Float.min_float; 1e308; 1e-308; 1e22; 1e23 ]);
  (* 16 digits would read back here too, but the rule takes 17 only
     after both 15 and 16 fail, so a shortest-digits algorithm would
     print different bytes. *)
  Alcotest.(check string) "0x1p-1017" "7.1202363472230444e-307"
    (Framing.float_str 0x1p-1017)

(* ------------------------------------------------------------------ *)
(* Admission *)

let test_admission () =
  let q = Admission.create ~cap:2 in
  Alcotest.(check bool) "offer 1" true (Admission.offer q 1);
  Alcotest.(check bool) "offer 2" true (Admission.offer q 2);
  Alcotest.(check bool) "offer 3 refused" false (Admission.offer q 3);
  Alcotest.(check int) "overflow counted" 1 (Admission.overflows q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Admission.take q);
  Alcotest.(check bool) "room again" true (Admission.offer q 3);
  Alcotest.(check (option int)) "order kept" (Some 2) (Admission.take q);
  Alcotest.(check (option int)) "tail" (Some 3) (Admission.take q);
  Alcotest.(check (option int)) "empty" None (Admission.take q)

(* ------------------------------------------------------------------ *)
(* Shared fixture *)

let boot_seed = 42
let boot = lazy (Bootstrap.make ~objects:8 ~seed:boot_seed ~particles:60 ())

let observation epoch x y tags =
  {
    Rfid_model.Types.o_epoch = epoch;
    o_reported_loc = Rfid_geom.Vec3.make x y 0.;
    o_read_tags = tags;
  }

let feed_engine boot obs_list =
  let engine = Bootstrap.fresh_engine boot in
  let guard = Bootstrap.fresh_guard boot in
  List.iter
    (fun obs ->
      match Rfid_robust.Ingest.step_engine guard engine obs with
      | Ok _ -> ()
      | Error (_, msg) -> Alcotest.failf "guard halted: %s" msg)
    obs_list;
  engine

let sample_obs =
  [
    observation 1 0.0 (-1.0) [ Rfid_model.Types.Object_tag 3; Rfid_model.Types.Shelf_tag 0 ];
    observation 2 0.1 (-0.9) [ Rfid_model.Types.Object_tag 3 ];
    observation 3 0.2 (-0.8) [ Rfid_model.Types.Object_tag 5 ];
  ]

(* ------------------------------------------------------------------ *)
(* Query *)

let test_range_mass () =
  let boot = Lazy.force boot in
  let engine = feed_engine boot sample_obs in
  let q = Query.create () in
  let whole =
    Query.range q ~engine ~min_x:(-1000.) ~min_y:(-1000.) ~max_x:1000.
      ~max_y:1000. ~min_mass:0.5
  in
  Alcotest.(check (list int))
    "both observed objects, ascending id" [ 3; 5 ]
    (List.map (fun a -> a.Query.a_obj) whole);
  List.iter
    (fun a ->
      if a.Query.a_mass < 0.999 || a.Query.a_mass > 1.0 then
        Alcotest.failf "whole-plane mass should be ~1, got %g for obj %d"
          a.Query.a_mass a.Query.a_obj)
    whole;
  (* A sub-box can only lose mass, and a far-away box loses all of it. *)
  let sub =
    Query.range q ~engine ~min_x:(-2.) ~min_y:(-2.) ~max_x:6. ~max_y:2.
      ~min_mass:0.001
  in
  List.iter
    (fun (a : Query.answer) ->
      let full = List.find (fun w -> w.Query.a_obj = a.Query.a_obj) whole in
      if a.Query.a_mass > full.Query.a_mass +. 1e-12 then
        Alcotest.failf "sub-box mass exceeds whole-plane mass for obj %d"
          a.Query.a_obj)
    sub;
  Alcotest.(check (list int))
    "disjoint box is empty" []
    (List.map
       (fun a -> a.Query.a_obj)
       (Query.range q ~engine ~min_x:500. ~min_y:500. ~max_x:600. ~max_y:600.
          ~min_mass:0.001));
  Alcotest.check_raises "inverted box rejected"
    (Invalid_argument "Query.range: min bound exceeds max bound") (fun () ->
      ignore
        (Query.range q ~engine ~min_x:5. ~min_y:0. ~max_x:(-5.) ~max_y:1.
           ~min_mass:0.01))

let test_event_ring () =
  let q = Query.create ~events_keep:3 () in
  for e = 1 to 5 do
    Query.record_event q
      (Rfid_core.Event.make ~epoch:e ~obj:e ~loc:(Rfid_geom.Vec3.make 0. 0. 0.) ())
  done;
  Alcotest.(check int) "seen counts everything" 5 (Query.events_seen q);
  Alcotest.(check int) "dropped = seen - keep" 2 (Query.events_dropped q);
  Alcotest.(check (list int))
    "ring keeps the newest, oldest first" [ 3; 4; 5 ]
    (List.map
       (fun (ev : Rfid_core.Event.t) -> ev.Rfid_core.Event.ev_epoch)
       (Query.events_since q ~epoch:0));
  Alcotest.(check (list int))
    "since filters" [ 5 ]
    (List.map
       (fun (ev : Rfid_core.Event.t) -> ev.Rfid_core.Event.ev_epoch)
       (Query.events_since q ~epoch:5))

(* ------------------------------------------------------------------ *)
(* Core: wire answers vs a direct engine replay *)

let make_core ?admit_cap ?events_keep ?hooks boot =
  Core.create ~guard:(Bootstrap.fresh_guard boot)
    ~engine:(Bootstrap.fresh_engine boot) ~num_objects:(Bootstrap.num_objects boot)
    ?admit_cap ?events_keep ?hooks ()

let req core line =
  let reply, _close = Core.handle_line core line in
  reply

let test_core_consistency () =
  let boot = Lazy.force boot in
  let core = make_core boot in
  List.iter
    (fun obs ->
      let reply =
        req core ("PUT " ^ Rfid_model.Trace_io.observation_to_line obs)
      in
      if String.length reply < 3 || String.sub reply 0 3 <> "OK " then
        Alcotest.failf "PUT not acked: %s" (String.trim reply))
    sample_obs;
  Alcotest.(check string) "SYNC reaches the last epoch" "OK 3\n" (req core "SYNC");
  (* The same observations through a bare guard + engine must yield
     byte-identical AT answers: the wire adds buffering, not noise. *)
  let reference = feed_engine boot sample_obs in
  List.iter
    (fun obj ->
      match Rfid_core.Engine.estimate reference obj with
      | None ->
          Alcotest.(check string)
            (Printf.sprintf "AT %d unknown both ways" obj)
            (Printf.sprintf "ERR 404 unknown-object %d\n" obj)
            (req core (Printf.sprintf "AT %d" obj))
      | Some (loc, cov) ->
          let sd =
            sqrt (Float.max 0. ((cov.(0).(0) +. cov.(1).(1)) /. 2.))
          in
          let expected =
            Printf.sprintf "OK %d %d %s %s %s %s\n" obj
              (Rfid_core.Engine.epoch reference)
              (Framing.float_str loc.Rfid_geom.Vec3.x)
              (Framing.float_str loc.Rfid_geom.Vec3.y)
              (Framing.float_str loc.Rfid_geom.Vec3.z)
              (Framing.float_str sd)
          in
          Alcotest.(check string)
            (Printf.sprintf "AT %d matches direct replay" obj)
            expected
            (req core (Printf.sprintf "AT %d" obj)))
    (List.init 8 Fun.id)

let test_core_backpressure () =
  let boot = Lazy.force boot in
  let core = make_core ~admit_cap:2 boot in
  Alcotest.(check string) "pause" "OK paused\n" (req core "PAUSE");
  Alcotest.(check string) "put 1" "OK 1\n" (req core "PUT 1,0.0,-1.0,0.0,obj:3");
  Alcotest.(check int) "paused tick is a no-op" 0 (Core.tick core ~max_steps:100);
  Alcotest.(check string) "put 2" "OK 2\n" (req core "PUT 2,0.1,-0.9,0.0,obj:3");
  Alcotest.(check string)
    "put 3 refused, not dropped" "BUSY 2/2\n"
    (req core "PUT 3,0.2,-0.8,0.0,obj:3");
  Alcotest.(check string) "resume" "OK running\n" (req core "RESUME");
  Alcotest.(check int) "tick drains" 2 (Core.tick core ~max_steps:100);
  Alcotest.(check string)
    "room again" "OK 1\n"
    (req core "PUT 3,0.2,-0.8,0.0,obj:3");
  let stats = req core "STATS" in
  if not (Util.contains_sub stats "busy_rejections 1") then
    Alcotest.failf "STATS should count 1 busy rejection:\n%s" stats

(* Flush events share the last step's epoch, so recovery can only tell
   them apart by the "# flush" marker in front of them; the checkpoint
   comes first so that recovery always regenerates them. *)
let test_core_drain_order () =
  let boot = Lazy.force boot in
  let calls = ref [] in
  let hooks =
    {
      Core.no_hooks with
      Core.on_events = (fun evs -> calls := `Events (List.length evs) :: !calls);
      on_flush_mark = (fun () -> calls := `Mark :: !calls);
      on_checkpoint = (fun _ -> calls := `Checkpoint :: !calls);
    }
  in
  let core =
    Core.create ~guard:(Bootstrap.fresh_guard boot) ~engine:(Bootstrap.fresh_engine boot)
      ~num_objects:(Bootstrap.num_objects boot) ~hooks ()
  in
  List.iter
    (fun obs -> ignore (req core ("PUT " ^ Rfid_model.Trace_io.observation_to_line obs)))
    sample_obs;
  ignore (req core "DRAIN");
  match !calls with
  | `Events n :: `Mark :: `Checkpoint :: _ when n > 0 -> ()
  | _ -> Alcotest.fail "DRAIN must fire on_checkpoint, on_flush_mark, then the flush events"

(* The halted latch (PROTOCOL.md §4): a guard that halts on an
   out-of-order epoch ends writes for good, while queries stay up. *)
let test_core_halted_latch () =
  let boot = Lazy.force boot in
  let put_all core =
    List.iter
      (fun line ->
        let reply = req core ("PUT " ^ line) in
        if String.length reply < 3 || String.sub reply 0 3 <> "OK " then
          Alcotest.failf "PUT %s not acked: %s" line (String.trim reply))
      [ "5,0.0,-1.0,0.0,obj:3"; "3,0.1,-0.9,0.0,obj:3"; "6,0.2,-0.8,0.0,obj:3" ]
  in
  let check_stats what core keys =
    let stats = req core "STATS" in
    List.iter
      (fun (k, v) ->
        if not (Util.contains_sub stats (Printf.sprintf "\n%s %d\n" k v)) then
          Alcotest.failf "%s: STATS should show %s %d:\n%s" what k v stats)
      keys
  in
  let core =
    Core.create ~guard:(Rfid_robust.Ingest.create ())
      ~engine:(Bootstrap.fresh_engine boot) ~num_objects:(Bootstrap.num_objects boot) ()
  in
  put_all core;
  let halted =
    "ERR 500 halted: out-of-order-epoch: Ingest: epoch 3 after epoch 5 \
     (out-of-order-epoch policy is halt)\n"
  in
  Alcotest.(check string) "SYNC halts" halted (req core "SYNC");
  Alcotest.(check string) "later PUT refused" halted
    (req core "PUT 7,0.3,-0.7,0.0,obj:3");
  Alcotest.(check string) "DRAIN refused" halted (req core "DRAIN");
  Alcotest.(check int) "tick steps nothing" 0 (Core.tick core ~max_steps:100);
  (* The server's SIGTERM path drains without a reply; the epoch queued
     behind the halt must still not reach the engine. *)
  Core.drain core;
  (match req core "AT 3" with
  | r when String.length r > 5 && String.sub r 0 5 = "OK 3 " -> ()
  | r -> Alcotest.failf "AT must still answer: %s" r);
  check_stats "halting guard" core
    [ ("epoch", 5); ("queue_depth", 1); ("halted", 1); ("fault.out-of-order-epoch", 1) ];
  (* The serving guard drops the same epoch and carries on. *)
  let core = make_core boot in
  put_all core;
  Alcotest.(check string) "dropping guard syncs" "OK 6\n" (req core "SYNC");
  check_stats "dropping guard" core
    [ ("epoch", 6); ("halted", 0); ("fault.out-of-order-epoch", 1) ]

(* ------------------------------------------------------------------ *)
(* Far-off requests: PROTOCOL.md accepts any finite bound or center *)

let far_seed = 3
let far_boot = lazy (Bootstrap.make ~objects:50 ~seed:far_seed ~particles:30 ())

(* One warehouse pass, which reads every object of [far_boot]. *)
let far_obs =
  lazy
    (let boot = Lazy.force far_boot in
     let wh = Rfid_sim.Warehouse.layout ~num_objects:(Bootstrap.num_objects boot) () in
     Rfid_model.Trace.observations
       (Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
          ~object_locs:wh.Rfid_sim.Warehouse.object_locs
          ~start:(Rfid_sim.Warehouse.reader_start wh)
          ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
          ~config:(Rfid_sim.Trace_gen.default_config ())
          (Rfid_prob.Rng.create ~seed:far_seed)))

let reply_count reply = Scanf.sscanf reply "OK %d" Fun.id

(* Every mass and mean coordinate a seeded RANGE sweep over the
   warehouse returns, rendered both ways. *)
let test_float_bytes_range_masses () =
  let boot = Lazy.force far_boot in
  let engine = feed_engine boot (Lazy.force far_obs) in
  let q = Query.create () in
  let vs = ref [] in
  (* [far_boot]'s objects sit near x = 2 along y in [0, 25]. *)
  for i = 0 to 15 do
    for j = -2 to 52 do
      let x = float_of_int i *. 0.25 and y = float_of_int j *. 0.5 in
      List.iter
        (fun (a : Query.answer) ->
          let l = a.Query.a_loc in
          vs :=
            a.Query.a_mass :: l.Rfid_geom.Vec3.x :: l.Rfid_geom.Vec3.y
            :: l.Rfid_geom.Vec3.z :: !vs)
        (Query.range q ~engine ~min_x:x ~min_y:y ~max_x:(x +. 0.5)
           ~max_y:(y +. 0.6) ~min_mass:0.001)
    done
  done;
  if List.length !vs < 400 then
    Alcotest.failf "RANGE sweep returned only %d values" (List.length !vs);
  check_float_bytes "RANGE sweep" !vs

let test_range_far_bounds () =
  let boot = Lazy.force far_boot in
  let core = make_core ~admit_cap:100_000 boot in
  List.iter
    (fun o -> ignore (req core ("PUT " ^ Rfid_model.Trace_io.observation_to_line o)))
    (Lazy.force far_obs);
  ignore (req core "SYNC");
  let near_box = reply_count (req core "RANGE -100 -100 100 100") in
  Alcotest.(check int) "every object in the +-100 box" (Bootstrap.num_objects boot) near_box;
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "RANGE +-%s finds the same objects" e)
        near_box
        (reply_count (req core (Printf.sprintf "RANGE -%s -%s %s %s" e e e e))))
    [ "1e19"; "1e300" ]

(* NEAR against brute force over the engine's estimates: the k means
   closest to the center, ties by id. *)
let test_near_far_center () =
  let boot = Lazy.force far_boot in
  let engine = feed_engine boot (Lazy.force far_obs) in
  let q = Query.create () in
  let brute ~k ~x ~y =
    let all = ref [] in
    Rfid_core.Engine.iter_estimates engine (fun obj mean _ ->
        all := (Float.hypot (mean.Rfid_geom.Vec3.x -. x) (mean.Rfid_geom.Vec3.y -. y), obj) :: !all);
    List.sort compare !all |> List.filteri (fun i _ -> i < k)
  in
  List.iter
    (fun (k, x, y) ->
      let got =
        List.map (fun a -> (a.Query.n_dist, a.Query.n_obj)) (Query.near q ~engine ~k ~x ~y)
      in
      Alcotest.(check (list (pair (float 0.) int)))
        (Printf.sprintf "NEAR %d %g %g" k x y)
        (brute ~k ~x ~y) got)
    [
      (3, 2., 5.);
      (3, 1e11, 0.);
      (3, 1e13, 0.);
      (5, -1e19, 7.);
      (2, 0., 1e300);
      (60, 1e13, 1e13);
    ]

(* ------------------------------------------------------------------ *)
(* OpenMetrics + UDP push *)

let test_openmetrics () =
  let module M = Rfid_obs.Metrics in
  M.incr (M.counter "test.om.epochs") 3;
  M.set (M.gauge "test om depth") 7.5;
  M.set (M.gauge "9a-b:c d") 1.;
  let h = M.histogram "test.om.latency" in
  M.observe h 0.002;
  M.observe h 0.004;
  ignore (M.histogram "test.om.empty");
  let text = Rfid_obs.Openmetrics.render () in
  List.iter
    (fun needle ->
      if not (Util.contains_sub text needle) then
        Alcotest.failf "missing %S in rendered metrics:\n%s" needle text)
    [
      "# TYPE test_om_epochs counter";
      "test_om_epochs_total 3";
      "# TYPE test_om_depth gauge";
      "test_om_depth 7.5";
      "# TYPE _9a_b:c_d gauge";
      "# TYPE test_om_latency summary";
      "test_om_latency{quantile=\"0.5\"}";
      "test_om_latency_sum 0.006";
      "test_om_latency_count 2";
      "test_om_empty_count 0";
      "# EOF";
    ];
  if Util.contains_sub text "test_om_empty{quantile" then
    Alcotest.fail "empty histogram must not emit quantiles"

let test_push_udp () =
  let recv = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close recv with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind recv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname recv with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      let p =
        match Push.create ~host:"127.0.0.1" ~port with
        | Ok p -> p
        | Error msg -> Alcotest.failf "push create: %s" msg
      in
      (* A payload bigger than one datagram, to force line-boundary
         chunking. *)
      let lines = List.init 200 (fun i -> Printf.sprintf "metric_%03d %d" i i) in
      let text = String.concat "\n" lines ^ "\n" in
      Push.send p text;
      Alcotest.(check int) "no send errors" 0 (Push.send_errors p);
      if Push.sends p < 2 then
        Alcotest.failf "expected chunking into >1 datagram, got %d" (Push.sends p);
      let buf = Bytes.create 65536 in
      let received = Buffer.create (String.length text) in
      Unix.setsockopt_float recv Unix.SO_RCVTIMEO 2.0;
      (try
         while Buffer.length received < String.length text do
           let n, _ = Unix.recvfrom recv buf 0 (Bytes.length buf) [] in
           let chunk = Bytes.sub_string buf 0 n in
           (* Every datagram must end at a line boundary. *)
           if n > 0 && chunk.[n - 1] <> '\n' then
             Alcotest.fail "datagram split mid-line";
           Buffer.add_string received chunk
         done
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         Alcotest.fail "timed out waiting for pushed datagrams");
      Alcotest.(check string)
        "reassembled payload" text (Buffer.contents received);
      Push.close p)

(* ------------------------------------------------------------------ *)
(* Server loop over loopback: Server.run in its own domain on port 0,
   driven by blocking clients from the test's domain. *)

(* The first [n] epochs of a path. *)
let rec take_epochs n = function
  | [] -> []
  | (seg : Rfid_sim.Trace_gen.segment) :: rest ->
      if n <= seg.seg_epochs then [ { seg with seg_epochs = n } ]
      else seg :: take_epochs (n - seg.seg_epochs) rest

(* PUT lines for [epochs] consecutive epochs of scan passes over the
   fixture's warehouse, generated at the fixture's own [seed]. The path
   stops after [epochs]: one pass of a large warehouse is thousands. *)
let put_lines ~seed boot ~epochs =
  let wh = Rfid_sim.Warehouse.layout ~num_objects:(Bootstrap.num_objects boot) () in
  let rec gen rounds =
    let trace =
      Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
        ~object_locs:wh.Rfid_sim.Warehouse.object_locs
        ~start:(Rfid_sim.Warehouse.reader_start wh)
        ~path:(take_epochs epochs (Rfid_sim.Trace_gen.straight_pass wh ~rounds))
        ~config:
          (Rfid_sim.Trace_gen.default_config ~sensor:(Rfid_sim.Truth_sensor.cone ()) ())
        (Rfid_prob.Rng.create ~seed)
    in
    let obs = Rfid_model.Trace.observations trace in
    if List.length obs >= epochs then obs else gen (2 * rounds)
  in
  List.map (fun o -> "PUT " ^ Rfid_model.Trace_io.observation_to_line o) (gen 1)

type live = {
  port : int;
  max_backlog : int Atomic.t;  (* largest [out_backlog] any pass saw *)
  drained_at : float Atomic.t;  (* when a pass last saw the queue empty out *)
}

let with_server ?(probe = ignore) core f =
  let port = Atomic.make 0 in
  let stop = Atomic.make false in
  let max_backlog = Atomic.make 0 in
  let drained_at = Atomic.make 0. in
  let depth = ref 0 in
  let on_pass ~out_backlog =
    probe ();
    if out_backlog > Atomic.get max_backlog then Atomic.set max_backlog out_backlog;
    let d = Core.queue_depth core in
    if d = 0 && !depth > 0 then Atomic.set drained_at (Unix.gettimeofday ());
    depth := d
  in
  let domain =
    Domain.spawn (fun () ->
        Server.run
          ~on_listening:(fun ~host:_ ~port:p -> Atomic.set port p)
          ~on_pass
          ~should_stop:(fun () -> Atomic.get stop)
          ~host:"127.0.0.1" ~port:0 core)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let live = { port = Atomic.get port; max_backlog; drained_at } in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join domain)
    (fun () ->
      if live.port = 0 then Alcotest.fail "server never listened";
      f live)

type client = { fd : Unix.file_descr; ic : in_channel }

let connect live =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, live.port));
  (* A stuck server fails the test instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  let c = { fd; ic = Unix.in_channel_of_descr fd } in
  ignore (input_line c.ic);
  c

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let send_lines c lines = send c (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let expect_line c what expected =
  Alcotest.(check string) what expected (input_line c.ic)

(* PAUSE, then queue every line (acks read), so a later RESUME hands
   the server one backlog of known size. *)
let queue_paused c lines =
  send c "PAUSE\n";
  expect_line c "paused" "OK paused";
  send_lines c lines;
  List.iteri
    (fun i _ -> expect_line c "PUT queued" (Printf.sprintf "OK %d" (i + 1)))
    lines

let big_seed = 7
let big_boot = lazy (Bootstrap.make ~objects:200 ~seed:big_seed ~particles:60 ())

let wait_until ~what ~timeout cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

(* PUT lines for a backlog that takes [big_boot] about 600 ms to step
   on this machine, timed on a fresh core. *)
let slow_backlog () =
  let boot = Lazy.force big_boot in
  let probe = put_lines ~seed:big_seed boot ~epochs:300 in
  let core = make_core ~admit_cap:300 boot in
  List.iter (fun l -> ignore (req core l)) probe;
  let t0 = Unix.gettimeofday () in
  ignore (Core.tick core ~max_steps:300);
  let per_step = (Unix.gettimeofday () -. t0) /. 300. in
  let epochs = int_of_float (Float.ceil (0.6 /. per_step)) in
  (epochs, put_lines ~seed:big_seed boot ~epochs)

(* A reply leaves in the pass that read its request, not after that
   pass's tick. The first epoch stepped after RESUME takes 300 ms in an
   [on_admitted] hook (as a checkpoint in that hook would), so the tick
   of the pass that reads "RESUME\nPING" lasts at least that long
   whatever the tick budget; the PING beside the RESUME is still
   answered at once. *)
let test_server_reply_before_tick () =
  let boot = Lazy.force big_boot in
  let lines = put_lines ~seed:big_seed boot ~epochs:4 in
  let slow = Atomic.make true in
  let hooks =
    {
      Core.no_hooks with
      Core.on_admitted = (fun _ -> if Atomic.exchange slow false then Unix.sleepf 0.3);
    }
  in
  let core = make_core ~admit_cap:4 ~hooks boot in
  with_server core (fun live ->
      let c = connect live in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          queue_paused c lines;
          let t0 = Unix.gettimeofday () in
          send c "RESUME\nPING\n";
          expect_line c "resumed" "OK running";
          expect_line c "pong" "OK pong";
          let waited = Unix.gettimeofday () -. t0 in
          wait_until ~what:"the tick" ~timeout:30. (fun () ->
              Atomic.get live.drained_at > t0);
          let tick = Atomic.get live.drained_at -. t0 in
          if tick < 0.3 then
            Alcotest.failf "fixture too fast: the tick took %.0f ms, not >= 300"
              (tick *. 1e3);
          if waited > 0.1 then
            Alcotest.failf "pong took %.0f ms, behind a %.0f ms tick"
              (waited *. 1e3) (tick *. 1e3)))

(* The server's tick budget, documented in server.mli. *)
let tick_budget = 0.002

let burst_seed = 11
let burst_boot = lazy (Bootstrap.make ~objects:5000 ~seed:burst_seed ())

(* A query waits behind at most one budgeted tick. 1024 epochs of a
   5000-object fixture are queued behind RESUME; PINGs sent one after
   another from a second connection through the burst must each be
   answered within the budget plus the slowest step plus 50 ms of
   scheduling slack. A step is timed as the gap between consecutive
   admitted epochs, which also counts any pass between them, so the
   bound only errs wide. *)
let test_server_burst_ping () =
  let boot = Lazy.force burst_boot in
  let epochs = 1024 in
  let lines = put_lines ~seed:burst_seed boot ~epochs in
  let stepped = Atomic.make 0 in
  let slowest = Atomic.make 0. in
  let last = ref None in
  let hooks =
    {
      Core.no_hooks with
      Core.on_admitted =
        (fun _ ->
          let now = Unix.gettimeofday () in
          Option.iter
            (fun t -> if now -. t > Atomic.get slowest then Atomic.set slowest (now -. t))
            !last;
          last := Some now;
          Atomic.incr stepped);
    }
  in
  let core = make_core ~admit_cap:epochs ~hooks boot in
  with_server core (fun live ->
      let writer = connect live in
      let reader = connect live in
      Fun.protect
        ~finally:(fun () ->
          close_client writer;
          close_client reader)
        (fun () ->
          queue_paused writer lines;
          send writer "RESUME\n";
          expect_line writer "resumed" "OK running";
          let worst = ref 0. and pings = ref 0 in
          while Atomic.get stepped < epochs do
            let t0 = Unix.gettimeofday () in
            send reader "PING\n";
            expect_line reader "pong" "OK pong";
            worst := Float.max !worst (Unix.gettimeofday () -. t0);
            incr pings
          done;
          let bound = tick_budget +. Atomic.get slowest +. 0.05 in
          if !worst > bound then
            Alcotest.failf
              "slowest of %d pongs took %.1f ms; budget %.0f ms + slowest step \
               %.1f ms + 50 ms slack is %.1f ms"
              !pings (!worst *. 1e3) (tick_budget *. 1e3)
              (Atomic.get slowest *. 1e3) (bound *. 1e3)))

(* Replies are not held for the peer's delayed ACK (TCP_NODELAY). A
   PING sent while a long SYNC runs is read in the pass after the SYNC
   reply went out; the client has not ACKed that reply yet, and Nagle
   would hold the pong until its delayed-ACK timer fired. *)
let test_server_no_nagle_hold () =
  let boot = Lazy.force big_boot in
  let epochs, lines = slow_backlog () in
  let core = make_core ~admit_cap:epochs boot in
  with_server core (fun live ->
      let c = connect live in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          queue_paused c lines;
          send c "SYNC\n";
          Unix.sleepf 0.05;
          send c "PING\n";
          let synced = input_line c.ic in
          let t1 = Unix.gettimeofday () in
          if not (String.starts_with ~prefix:"OK " synced) then
            Alcotest.failf "SYNC answered %S" synced;
          expect_line c "pong" "OK pong";
          let held = Unix.gettimeofday () -. t1 in
          if held > 0.02 then
            Alcotest.failf "pong arrived %.0f ms after the SYNC reply" (held *. 1e3)))

(* A tick that leaves epochs queued makes the next select only poll:
   1024 queued epochs and no further traffic drain within the ticks'
   own time, not with a select timeout between ticks. A pass's tick
   time runs from its first admitted epoch to its [on_pass]. *)
let test_server_idle_drain () =
  let boot = Lazy.force boot in
  let lines = put_lines ~seed:boot_seed boot ~epochs:1024 in
  let pass_start = ref None in
  let tick_sum = Atomic.make 0. in
  let hooks =
    {
      Core.no_hooks with
      Core.on_admitted =
        (fun _ ->
          if !pass_start = None then pass_start := Some (Unix.gettimeofday ()));
    }
  in
  let probe () =
    Option.iter
      (fun t ->
        Atomic.set tick_sum (Atomic.get tick_sum +. (Unix.gettimeofday () -. t)))
      !pass_start;
    pass_start := None
  in
  let core =
    Core.create ~guard:(Bootstrap.fresh_guard boot)
      ~engine:(Bootstrap.fresh_engine boot) ~num_objects:(Bootstrap.num_objects boot)
      ~admit_cap:1024 ~hooks ()
  in
  with_server ~probe core (fun live ->
      let c = connect live in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          queue_paused c lines;
          let t0 = Unix.gettimeofday () in
          send c "RESUME\n";
          expect_line c "resumed" "OK running";
          wait_until ~what:"the drain" ~timeout:30. (fun () ->
              Atomic.get live.drained_at > t0);
          let span = Atomic.get live.drained_at -. t0 in
          let busy = Atomic.get tick_sum in
          if span > busy +. 0.04 then
            Alcotest.failf "1024 epochs drained in %.0f ms; the ticks took %.0f ms"
              (span *. 1e3) (busy *. 1e3)))

(* A client that sends and never reads holds at most max_out_bytes plus
   one reply in the server, and does not stop others being served. *)
let test_server_out_backpressure () =
  let boot = Lazy.force big_boot in
  let core = make_core ~admit_cap:4096 boot in
  List.iter (fun l -> ignore (req core l)) (put_lines ~seed:big_seed boot ~epochs:1100);
  ignore (req core "SYNC");
  let range = "RANGE -1000 -1000 1000 1000 0.001" in
  let one_reply = String.length (req core range) in
  with_server core (fun live ->
      let hog = connect live in
      Fun.protect
        ~finally:(fun () -> close_client hog)
        (fun () ->
          Unix.setsockopt_float hog.fd Unix.SO_SNDTIMEO 20.;
          send_lines hog (List.init 2000 (fun _ -> range));
          wait_until ~what:"the reply backlog to reach the cap" ~timeout:30.
            (fun () -> Atomic.get live.max_backlog > Server.max_out_bytes);
          Unix.sleepf 0.2;
          let other = connect live in
          Fun.protect
            ~finally:(fun () -> close_client other)
            (fun () ->
              send other "PING\n";
              expect_line other "served beside a stuck reader" "OK pong");
          let peak = Atomic.get live.max_backlog in
          if peak > Server.max_out_bytes + one_reply then
            Alcotest.failf "reply backlog reached %d bytes; cap %d + one reply %d"
              peak Server.max_out_bytes one_reply))

(* A slow reader costs the server the bytes written to it, not a copy
   of the whole backlog per write: while a client with a small receive
   buffer drains ~6 MB of RANGE replies a few KB at a time, the server
   domain allocates about what rendering those replies costs
   in-process. *)
let test_server_write_no_copy () =
  let boot = Lazy.force big_boot in
  let core = make_core ~admit_cap:4096 boot in
  List.iter (fun l -> ignore (req core l)) (put_lines ~seed:big_seed boot ~epochs:1100);
  ignore (req core "SYNC");
  let range = "RANGE -1000 -1000 1000 1000 0.001" in
  let count = 500 in
  let before = Gc.allocated_bytes () in
  let reply = req core range in
  for _ = 2 to count do
    ignore (req core range)
  done;
  let render = Gc.allocated_bytes () -. before in
  let total = count * String.length reply in
  let allocated = Atomic.make 0. in
  let probe () = Atomic.set allocated (Gc.allocated_bytes ()) in
  with_server ~probe core (fun live ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let c = { fd; ic = Unix.in_channel_of_descr fd } in
      Fun.protect
        ~finally:(fun () -> close_client c)
        (fun () ->
          Unix.setsockopt_int fd Unix.SO_RCVBUF 8192;
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, live.port));
          ignore (input_line c.ic);
          (* Passes run at least every tick_timeout; let one record the
             starting count. *)
          Unix.sleepf 0.2;
          let start = Atomic.get allocated in
          send_lines c (List.init count (fun _ -> range));
          let buf = Bytes.create 4096 in
          let got = ref 0 in
          while !got < total do
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n = 0 then Alcotest.fail "server closed the connection";
            got := !got + n;
            Unix.sleepf 0.0002
          done;
          Unix.sleepf 0.2;
          let spent = Atomic.get allocated -. start in
          if spent > render +. float_of_int total +. 16e6 then
            Alcotest.failf
              "server allocated %.0f MB sending %.1f MB of replies \
               (rendering them: %.0f MB)"
              (spent /. 1e6) (float_of_int total /. 1e6) (render /. 1e6)))

(* ------------------------------------------------------------------ *)
(* PROTOCOL.md conformance *)

type exchange = { request : string option; expected : string list }
(* [request = None] is the connection greeting. *)

type session = { flags : (string * string) list; exchanges : exchange list }

let parse_sessions path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let sessions = ref [] in
  let current : string list ref = ref [] in
  let in_session = ref false in
  List.iter
    (fun line ->
      if !in_session then
        if line = "```" then begin
          in_session := false;
          sessions := List.rev !current :: !sessions;
          current := []
        end
        else current := line :: !current
      else if line = "```session" then in_session := true)
    lines;
  List.rev_map
    (fun body ->
      let flags = ref [] in
      let exchanges = ref [] in
      let pending_req = ref None in
      let pending_exp = ref [] in
      let close_exchange () =
        if !pending_req <> None || !pending_exp <> [] then begin
          exchanges :=
            { request = !pending_req; expected = List.rev !pending_exp }
            :: !exchanges;
          pending_req := None;
          pending_exp := []
        end
      in
      List.iter
        (fun line ->
          if String.length line >= 9 && String.sub line 0 9 = "# server " then begin
            let toks =
              String.split_on_char ' '
                (String.sub line 9 (String.length line - 9))
              |> List.filter (fun s -> s <> "")
            in
            let rec pair = function
              | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--"
                ->
                  flags :=
                    (String.sub k 2 (String.length k - 2), v) :: !flags;
                  pair rest
              | _ -> ()
            in
            pair toks
          end
          else if String.length line >= 3 && String.sub line 0 3 = "C: " then begin
            close_exchange ();
            pending_req := Some (String.sub line 3 (String.length line - 3))
          end
          else if line = "C:" then begin
            close_exchange ();
            pending_req := Some ""
          end
          else if String.length line >= 3 && String.sub line 0 3 = "S: " then
            pending_exp := String.sub line 3 (String.length line - 3) :: !pending_exp)
        body;
      close_exchange ();
      { flags = !flags; exchanges = List.rev !exchanges })
    !sessions
  |> List.rev

let core_of_flags flags =
  let geti key default =
    match List.assoc_opt key flags with
    | Some v -> int_of_string v
    | None -> default
  in
  let objects = geti "objects" 16 in
  let seed = geti "seed" 42 in
  let variant =
    match List.assoc_opt "variant" flags with
    | Some "unfactorized" -> Rfid_core.Config.Unfactorized
    | Some "factorized" -> Rfid_core.Config.Factorized
    | Some "compressed" -> Rfid_core.Config.Factorized_compressed
    | Some "indexed" | None -> Rfid_core.Config.Factorized_indexed
    | Some other -> Alcotest.failf "unknown variant %s in # server line" other
  in
  let boot =
    Bootstrap.make ~objects ~seed ~variant ~particles:(geti "particles" 200) ()
  in
  Core.create ~guard:(Bootstrap.fresh_guard boot)
    ~engine:(Bootstrap.fresh_engine boot) ~num_objects:objects
    ~admit_cap:(geti "admit-cap" 1024) ~events_keep:(geti "events-keep" 4096) ()

let split_reply reply =
  if reply = "" then []
  else begin
    if reply.[String.length reply - 1] <> '\n' then
      Alcotest.failf "reply not newline-terminated: %S" reply;
    String.split_on_char '\n' (String.sub reply 0 (String.length reply - 1))
  end

let check_exchange session_no what expected actual =
  if expected <> actual then
    Alcotest.failf
      "session %d, %s:\nexpected:\n%s\nactual:\n%s\n\n\
       (update the session block in PROTOCOL.md to match reality, or fix \
       the server)"
      session_no what
      (String.concat "\n" (List.map (fun l -> "S: " ^ l) expected))
      (String.concat "\n" (List.map (fun l -> "S: " ^ l) actual))

let protocol_md_path () =
  (* Under `dune runtest` the cwd is _build/default/test and the spec
     is a declared dep one level up; under `dune exec` from the source
     tree it is in the cwd. *)
  match List.find_opt Sys.file_exists [ "../PROTOCOL.md"; "PROTOCOL.md" ] with
  | Some p -> p
  | None -> Alcotest.fail "PROTOCOL.md not found next to the test"

let test_protocol_conformance () =
  let sessions = parse_sessions (protocol_md_path ()) in
  if List.length sessions < 4 then
    Alcotest.failf "expected several session blocks in PROTOCOL.md, found %d"
      (List.length sessions);
  List.iteri
    (fun i session ->
      let core = core_of_flags session.flags in
      List.iter
        (fun ex ->
          match ex.request with
          | None ->
              check_exchange (i + 1) "greeting" ex.expected
                (split_reply (Core.greeting core))
          | Some request ->
              let reply, _close = Core.handle_line core request in
              check_exchange (i + 1)
                (Printf.sprintf "request %S" request)
                ex.expected (split_reply reply))
        session.exchanges)
    sessions

let suite =
  ( "serve",
    [
      Alcotest.test_case "framing: line reassembly" `Quick test_framing_lines;
      Alcotest.test_case "framing: CRLF tolerated" `Quick test_framing_crlf;
      Alcotest.test_case "framing: overflow resyncs" `Quick test_framing_overflow;
      Alcotest.test_case "framing: float round-trip" `Quick test_float_str;
      Alcotest.test_case "framing: float bytes = printf chain" `Quick
        test_float_bytes_edges;
      Alcotest.test_case "framing: RANGE floats = printf chain" `Quick
        test_float_bytes_range_masses;
      Alcotest.test_case "admission: bounded fifo" `Quick test_admission;
      Alcotest.test_case "query: range mass" `Quick test_range_mass;
      Alcotest.test_case "query: event ring" `Quick test_event_ring;
      Alcotest.test_case "core: wire = direct replay" `Quick test_core_consistency;
      Alcotest.test_case "core: backpressure" `Quick test_core_backpressure;
      Alcotest.test_case "core: RANGE with far finite bounds" `Quick test_range_far_bounds;
      Alcotest.test_case "query: NEAR far from every object" `Quick test_near_far_center;
      Alcotest.test_case "core: halted latch" `Quick test_core_halted_latch;
      Alcotest.test_case "core: DRAIN checkpoints, marks, flushes" `Quick
        test_core_drain_order;
      Alcotest.test_case "openmetrics: render" `Quick test_openmetrics;
      Alcotest.test_case "push: UDP loopback" `Quick test_push_udp;
      Alcotest.test_case "server: reply before tick" `Quick
        test_server_reply_before_tick;
      Alcotest.test_case "server: PING through a burst" `Quick test_server_burst_ping;
      Alcotest.test_case "server: no Nagle hold" `Quick test_server_no_nagle_hold;
      Alcotest.test_case "server: idle drain" `Quick test_server_idle_drain;
      Alcotest.test_case "server: reply backpressure" `Quick
        test_server_out_backpressure;
      Alcotest.test_case "server: writes copy no backlog" `Quick
        test_server_write_no_copy;
      Alcotest.test_case "PROTOCOL.md conformance" `Quick test_protocol_conformance;
    ] )
