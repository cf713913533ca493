(* Observability layer: histogram bucket geometry, counter/gauge/
   histogram read-out, quantiles, span timing/nesting and clock, JSON
   dumps, and an end-to-end check that engine snapshots carry monotone
   counters — the same mechanism `rfid_clean infer --metrics` exposes.
   Everything records into the global registry, under [test.*] names
   where a test owns the metric. *)
module M = Rfid_obs.Metrics

(* ------------------------------------------------------------------ *)
(* A minimal recursive-descent JSON validator (no JSON library in the
   dependency set): validates syntax and returns top-level object keys
   plus any ["name": number] pairs found anywhere in the document. *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let numbers = ref [] in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then fail "bad escape";
            Buffer.add_char b s.[!pos + 1];
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> ignore (parse_object ())
    | Some '[' -> parse_array ()
    | Some '"' -> ignore (parse_string ())
    | Some ('t' | 'f' | 'n') -> parse_keyword ()
    | Some _ -> ignore (parse_number ())
    | None -> fail "unexpected end of input"
  and parse_keyword () =
    let kw = [ "true"; "false"; "null" ] in
    match
      List.find_opt
        (fun k ->
          !pos + String.length k <= n && String.sub s !pos (String.length k) = k)
        kw
    with
    | Some k -> pos := !pos + String.length k
    | None -> fail "expected keyword"
  and parse_array () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let rec items () =
        parse_value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items ()
        | Some ']' -> incr pos
        | _ -> fail "expected , or ]"
      in
      items ()
    end
  and parse_object () =
    expect '{';
    skip_ws ();
    let keys = ref [] in
    (if peek () = Some '}' then incr pos
     else
       let rec members () =
         skip_ws ();
         let key = parse_string () in
         keys := key :: !keys;
         skip_ws ();
         expect ':';
         skip_ws ();
         (match peek () with
         | Some ('{' | '[' | '"' | 't' | 'f' | 'n') -> parse_value ()
         | Some _ ->
             let v = parse_number () in
             numbers := (key, v) :: !numbers
         | None -> fail "unexpected end of input");
         skip_ws ();
         match peek () with
         | Some ',' ->
             incr pos;
             members ()
         | Some '}' -> incr pos
         | _ -> fail "expected , or }"
       in
       members ());
    List.rev !keys
  in
  skip_ws ();
  let top = match peek () with
    | Some '{' -> parse_object ()
    | _ -> fail "expected top-level object"
  in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  (top, List.rev !numbers)

let number_of ~key numbers =
  match List.assoc_opt key numbers with
  | Some v -> v
  | None -> Alcotest.failf "key %S not found among parsed numbers" key

(* ------------------------------------------------------------------ *)
(* Bucket geometry *)

let test_buckets () =
  (* Values outside the bucket range (NaN, negatives, tiny, huge) must
     land in a bucket, and quantiles stay monotone in [q] across many
     octaves. *)
  let h = M.histogram "test.buckets" in
  List.iter (M.observe h) [ 1e-12; Float.nan; -1.0; 1e300 ];
  Alcotest.(check int) "extremes counted" 4 (M.histogram_count h);
  let h2 = M.histogram "test.buckets.octaves" in
  for i = 0 to 200 do
    M.observe h2 (1e-9 *. Float.exp2 (float_of_int i /. 10.))
  done;
  let prev = ref neg_infinity in
  for k = 0 to 100 do
    let v = M.quantile h2 (float_of_int k /. 100.) in
    if v < !prev then Alcotest.failf "quantile not monotone at q=%d%%" k;
    prev := v
  done

(* ------------------------------------------------------------------ *)
(* Counters, gauges, histogram read-out *)

let check_in_dump what needle =
  let s = M.dump_json () in
  if not (Util.contains_sub s needle) then Alcotest.failf "%s: %S not in %s" what needle s

let test_values () =
  let c = M.counter "test.values.c" in
  M.incr c 2;
  M.incr c 15;
  Alcotest.(check int) "counter sums increments" 17 (M.counter_value c);
  let g = M.gauge "test.values.g" in
  M.set g 1.5;
  M.set g 2.5;
  Alcotest.(check (float 0.)) "gauge last write wins" 2.5 (M.gauge_value g);
  let h = M.histogram "test.values.h" in
  let values = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ] in
  List.iter (M.observe h) values;
  Alcotest.(check int) "hist count" (List.length values) (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "hist sum" 127.5 (M.histogram_sum h);
  check_in_dump "hist min and max"
    "\"test.values.h\": {\"count\": 8, \"sum\": 127.5, \"min\": 0.5, \"max\": 64,"

let test_quantiles () =
  let h = M.histogram "test.q" in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (M.quantile h 0.5));
  M.observe h 3.0;
  (* One observation: every quantile clamps into [min, max] = [3, 3]. *)
  Alcotest.(check (float 0.)) "single value p50" 3.0 (M.quantile h 0.5);
  Alcotest.(check (float 0.)) "single value p99" 3.0 (M.quantile h 0.99);
  let h2 = M.histogram "test.q2" in
  for i = 1 to 1000 do
    M.observe h2 (float_of_int i)
  done;
  (* Log-scaled buckets guarantee <= ~9% relative error. *)
  List.iter
    (fun (q, expected) ->
      let got = M.quantile h2 q in
      let rel = Float.abs (got -. expected) /. expected in
      if rel > 0.09 then
        Alcotest.failf "quantile %g: got %g, expected %g (rel err %g)" q got expected
          rel)
    [ (0.5, 500.); (0.95, 950.); (0.99, 990.) ];
  (* Reset zeroes values but keeps handles usable. *)
  M.reset M.global;
  Alcotest.(check int) "reset empties histogram" 0 (M.histogram_count h2);
  M.observe h2 1.0;
  Alcotest.(check int) "handle alive after reset" 1 (M.histogram_count h2)

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_spans () =
  let outer = M.span "test.span.outer" in
  let inner = M.span "test.span.inner" in
  let spin s =
    let t_end = Unix.gettimeofday () +. s in
    while Unix.gettimeofday () < t_end do () done
  in
  for _ = 1 to 3 do
    let t0 = M.start outer in
    let t1 = M.start inner in
    spin 0.002;
    M.stop inner t1;
    M.stop outer t0
  done;
  let ho = M.histogram "test.span.outer" and hi = M.histogram "test.span.inner" in
  Alcotest.(check int) "outer count" 3 (M.histogram_count ho);
  Alcotest.(check int) "inner count" 3 (M.histogram_count hi);
  (* Nesting: each outer interval contains its inner one. *)
  if M.histogram_sum ho +. 1e-9 < M.histogram_sum hi then
    Alcotest.fail "outer spans shorter than nested inner spans";
  if M.histogram_sum hi < 3. *. (0.002 -. 1e-4) then
    Alcotest.failf "inner spans too short: %g" (M.histogram_sum hi)

(* Spans read CLOCK_MONOTONIC, so a sleep is timed by the clock the
   sleep itself is measured against. *)
let test_span_monotonic () =
  let sp = M.span "test.span.sleep" in
  let t0 = M.start sp in
  Unix.sleepf 0.002;
  M.stop sp t0;
  let v = M.histogram_sum (M.histogram "test.span.sleep") in
  if not (v >= 0.002 -. 1e-9 && v < 1.0) then
    Alcotest.failf "a 2 ms sleep recorded %g s" v

let test_registration_conflicts () =
  let c = M.counter "test.same-name" in
  let c' = M.counter "test.same-name" in
  M.incr c 1;
  M.incr c' 1;
  Alcotest.(check int) "same name, same counter" 2 (M.counter_value c);
  Alcotest.check_raises "kind conflict rejected"
    (Invalid_argument "Metrics: \"test.same-name\" is already registered with a different kind")
    (fun () -> ignore (M.histogram "test.same-name"))

(* ------------------------------------------------------------------ *)
(* JSON dump *)

let test_dump_json () =
  M.reset M.global;
  M.incr (M.counter "test.dump.epochs") 42;
  M.set (M.gauge "test.dump.reader_ess") 12.5;
  let h = M.histogram "test.dump.step" in
  M.observe h 0.001;
  M.observe h 0.002;
  ignore (M.histogram "test.dump.unused");
  let s = M.dump_json ~extra:[ ("epoch", "7") ] () in
  let keys, numbers = validate_json s in
  Alcotest.(check (list string)) "top-level keys"
    [ "schema"; "epoch"; "counters"; "gauges"; "histograms" ]
    keys;
  Alcotest.(check (float 0.)) "extra epoch" 7. (number_of ~key:"epoch" numbers);
  Alcotest.(check (float 0.)) "counter value" 42.
    (number_of ~key:"test.dump.epochs" numbers);
  Alcotest.(check (float 0.)) "gauge value" 12.5
    (number_of ~key:"test.dump.reader_ess" numbers);
  check_in_dump "hist count and sum" "\"test.dump.step\": {\"count\": 2, \"sum\": 0.003,";
  (* An empty histogram prints only its count. *)
  check_in_dump "empty hist" "\"test.dump.unused\": {\"count\": 0}"

(* ------------------------------------------------------------------ *)
(* End-to-end: engine runs feed the global registry; snapshots are
   valid JSON whose counters increase monotonically across epochs —
   the contract `rfid_clean infer --metrics` exposes. *)

let test_engine_snapshots_monotone () =
  M.reset M.global;
  let wh = Rfid_sim.Warehouse.layout ~num_objects:6 () in
  let sensor = Rfid_sim.Truth_sensor.cone ~rr_major:0.9 () in
  let trace =
    Rfid_sim.Trace_gen.run ~world:wh.Rfid_sim.Warehouse.world
      ~object_locs:wh.Rfid_sim.Warehouse.object_locs
      ~start:(Rfid_sim.Warehouse.reader_start wh)
      ~path:(Rfid_sim.Trace_gen.straight_pass wh ~rounds:1)
      ~config:(Rfid_sim.Trace_gen.default_config ~sensor ())
      (Rfid_prob.Rng.create ~seed:3)
  in
  let config =
    Rfid_core.Config.create ~variant:Rfid_core.Config.Factorized_indexed
      ~num_reader_particles:30 ~num_object_particles:40 ()
  in
  let engine =
    Rfid_core.Engine.create ~world:wh.Rfid_sim.Warehouse.world
      ~params:Rfid_model.Params.default ~config
      ~init_reader:trace.Rfid_model.Trace.steps.(0).Rfid_model.Trace.true_reader
      ~seed:5 ()
  in
  let snapshots = ref [] in
  List.iteri
    (fun i obs ->
      ignore (Rfid_core.Engine.step engine obs);
      if i mod 10 = 0 then snapshots := M.dump_json () :: !snapshots)
    (Rfid_model.Trace.observations trace);
  snapshots := M.dump_json () :: !snapshots;
  let snapshots = List.rev !snapshots in
  Alcotest.(check bool) "several snapshots" true (List.length snapshots >= 3);
  let last = ref (-1.) in
  List.iter
    (fun s ->
      let _, numbers = validate_json s in
      let epochs = number_of ~key:"engine.epochs" numbers in
      if epochs < !last then
        Alcotest.failf "engine.epochs not monotone: %g after %g" epochs !last;
      last := epochs;
      (* Health gauges present once the filter has run. *)
      ignore (number_of ~key:"health.reader_ess" numbers);
      ignore (number_of ~key:"health.scope_objects" numbers))
    snapshots;
  if !last <= 0. then Alcotest.fail "engine.epochs never advanced"

let suite =
  ( "obs",
    [
      Alcotest.test_case "bucket geometry" `Quick test_buckets;
      Alcotest.test_case "counter, gauge and histogram" `Quick test_values;
      Alcotest.test_case "quantiles" `Quick test_quantiles;
      Alcotest.test_case "span nesting" `Quick test_spans;
      Alcotest.test_case "span on monotonic clock" `Quick test_span_monotonic;
      Alcotest.test_case "registration conflicts" `Quick test_registration_conflicts;
      Alcotest.test_case "dump_json validity" `Quick test_dump_json;
      Alcotest.test_case "engine snapshots monotone" `Quick
        test_engine_snapshots_monotone;
    ] )
