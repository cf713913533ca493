module Engine = Rfid_core.Engine
module Event = Rfid_core.Event
module Ingest = Rfid_robust.Ingest
module Config = Rfid_core.Config

type hooks = {
  on_events : Event.t list -> unit;
  on_flush_mark : unit -> unit;
  on_admitted : int -> unit;
  on_checkpoint : Engine.t -> unit;
}

let no_hooks =
  {
    on_events = (fun _ -> ());
    on_flush_mark = (fun () -> ());
    on_admitted = (fun _ -> ());
    on_checkpoint = (fun _ -> ());
  }

type t = {
  guard : Ingest.t;
  engine : Engine.t;
  num_objects : int;
  queue : Rfid_model.Types.observation Admission.t;
  query : Query.t;
  checkpoint_every : int;
  hooks : hooks;
  reply : Buffer.t;  (* every reply is written here, then copied out *)
  mutable admitted : int;
  mutable paused : bool;
  mutable draining : bool;
  mutable halted : string option;
}

let create ~guard ~engine ~num_objects ?(admit_cap = 1024) ?events_keep
    ?(checkpoint_every = 0) ?(hooks = no_hooks) () =
  if checkpoint_every < 0 then
    invalid_arg "Core.create: checkpoint_every must be >= 0";
  {
    guard;
    engine;
    num_objects;
    queue = Admission.create ~cap:admit_cap;
    query = Query.create ?events_keep ();
    checkpoint_every;
    hooks;
    reply = Buffer.create 1024;
    admitted = 0;
    paused = false;
    draining = false;
    halted = None;
  }

let variant_name t =
  match (Engine.config t.engine).Config.variant with
  | Config.Factorized -> "factorized"
  | Config.Factorized_indexed -> "indexed"
  | Config.Factorized_compressed -> "compressed"

let greeting t =
  Printf.sprintf "RFID-SERVE/1 READY variant=%s objects=%d\n" (variant_name t)
    t.num_objects

let queue_depth t = Admission.length t.queue
let epoch t = Engine.epoch t.engine
let admitted t = t.admitted
let engine t = t.engine
let preload_event t ev = Query.record_event t.query ev

(* One observation through the guard into the engine. Epoch
   bookkeeping keys off the engine's own clock: a Rejected decision (or
   a duplicate the engine skips) advances nothing and must not count as
   admitted or fire hooks. The query layer needs no notification — it
   drains the engine's change feed on its next query. *)
let ingest t obs =
  let before = Engine.epoch t.engine in
  match Ingest.step_engine t.guard t.engine obs with
  | Error (fault, msg) ->
      t.halted <- Some (Printf.sprintf "%s: %s" (Ingest.fault_name fault) msg);
      Error (fault, msg)
  | Ok events ->
      if Engine.epoch t.engine > before then begin
        t.admitted <- t.admitted + 1;
        t.hooks.on_admitted t.admitted;
        if events <> [] then begin
          List.iter (Query.record_event t.query) events;
          t.hooks.on_events events
        end;
        if t.checkpoint_every > 0 && t.admitted mod t.checkpoint_every = 0 then
          t.hooks.on_checkpoint t.engine
      end;
      Ok ()

(* Step queued observations until [max_steps] are done, the queue is
   empty or the guard halts. [SYNC]/[DRAIN] call it without a step cap
   and ignore the pause latch: both are explicit requests to make
   queued writes visible now. *)
let rec run_queue t ~max_steps steps =
  if t.halted <> None || steps >= max_steps then steps
  else
    match Admission.take t.queue with
    | None -> steps
    | Some obs ->
        ignore (ingest t obs);
        run_queue t ~max_steps (steps + 1)

let tick t ~max_steps = if t.paused then 0 else run_queue t ~max_steps 0
let process_queue t = ignore (run_queue t ~max_steps:max_int 0)

let drain t =
  if not t.draining then begin
    process_queue t;
    if t.halted = None then begin
      (* The end-of-stream order core.mli states for [drain]. *)
      t.hooks.on_checkpoint t.engine;
      t.hooks.on_flush_mark ();
      (* [flush] emits pending reports but moves no posterior, so the
         query cache stays valid as-is. *)
      let events = Engine.flush t.engine in
      if events <> [] then begin
        List.iter (Query.record_event t.query) events;
        t.hooks.on_events events
      end
    end;
    t.draining <- true
  end

(* ------------------------------------------------------------------ *)
(* Reply formatting *)

(* A reply is written into [t.reply], which [start] clears, and copied
   out once by [finish]: no Printf, and no fresh buffer per reply. *)
let start t =
  Buffer.clear t.reply;
  t.reply

let finish t = (Buffer.contents t.reply, false)

let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_float b v = Buffer.add_string b (Framing.float_str v)

let err t code msg =
  let b = start t in
  Buffer.add_string b "ERR ";
  add_int b code;
  Buffer.add_char b ' ';
  Buffer.add_string b msg;
  Buffer.add_char b '\n';
  finish t

(* ["OK n\n"], the count line of a multi-line reply, left open for
   the lines that follow. *)
let ok_count t n =
  let b = start t in
  Buffer.add_string b "OK ";
  add_int b n;
  Buffer.add_char b '\n';
  b

let ok_int t n =
  ignore (ok_count t n);
  finish t

let halted_reply t msg = err t 500 ("halted: " ^ msg)

let handle_put t rest =
  if t.draining then err t 410 "draining"
  else
    match t.halted with
    | Some msg -> halted_reply t msg
    | None -> (
        match Rfid_model.Trace_io.observation_of_line rest with
        | Error msg -> err t 400 msg
        | Ok obs ->
            if Admission.offer t.queue obs then
              ok_int t (Admission.length t.queue)
            else begin
              let b = start t in
              Buffer.add_string b "BUSY ";
              add_int b (Admission.length t.queue);
              Buffer.add_char b '/';
              add_int b (Admission.capacity t.queue);
              Buffer.add_char b '\n';
              finish t
            end)

let handle_sync t =
  match t.halted with
  | Some msg -> halted_reply t msg
  | None -> (
      process_queue t;
      match t.halted with
      | Some msg -> halted_reply t msg
      | None -> ok_int t (Engine.epoch t.engine))

let handle_at t rest =
  match int_of_string_opt (String.trim rest) with
  | None -> err t 401 "bad-argument: AT takes one object id"
  | Some obj -> (
      match Query.at t.query ~engine:t.engine obj with
      | None -> err t 404 ("unknown-object " ^ string_of_int obj)
      | Some (loc, sd_xy) ->
          let b = start t in
          Buffer.add_string b "OK ";
          add_int b obj;
          Buffer.add_char b ' ';
          add_int b (Engine.epoch t.engine);
          List.iter
            (fun v ->
              Buffer.add_char b ' ';
              add_float b v)
            Rfid_geom.Vec3.[ loc.x; loc.y; loc.z; sd_xy ];
          Buffer.add_char b '\n';
          finish t)

(* One answer line of RANGE/NEAR: ["obj v x y z"]. *)
let add_answer b obj v xyz =
  add_int b obj;
  Buffer.add_char b ' ';
  add_float b v;
  Buffer.add_char b ' ';
  Buffer.add_string b xyz;
  Buffer.add_char b '\n'

let handle_near t rest =
  let fields =
    String.split_on_char ' ' (String.trim rest) |> List.filter (fun s -> s <> "")
  in
  let parsed =
    match fields with
    | [ k; x; y ] -> (
        match (int_of_string_opt k, float_of_string_opt x, float_of_string_opt y) with
        | Some k, Some x, Some y -> Some (k, x, y)
        | _ -> None)
    | _ -> None
  in
  match parsed with
  | None -> err t 401 "bad-argument: NEAR takes k x y"
  | Some (k, x, y) -> (
      match Query.near t.query ~engine:t.engine ~k ~x ~y with
      | exception Invalid_argument msg -> err t 401 ("bad-argument: " ^ msg)
      | answers ->
          let b = ok_count t (List.length answers) in
          List.iter
            (fun (a : Query.near_answer) ->
              add_answer b a.Query.n_obj a.Query.n_dist a.Query.n_xyz)
            answers;
          finish t)

let handle_range t rest =
  let fields =
    String.split_on_char ' ' (String.trim rest)
    |> List.filter (fun s -> s <> "")
  in
  let parse4 a b c d rest_mass =
    match
      (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c,
       float_of_string_opt d, rest_mass)
    with
    | Some min_x, Some min_y, Some max_x, Some max_y, Some min_mass ->
        Some (min_x, min_y, max_x, max_y, min_mass)
    | _ -> None
  in
  let parsed =
    match fields with
    | [ a; b; c; d ] -> parse4 a b c d (Some 0.01)
    | [ a; b; c; d; m ] -> parse4 a b c d (float_of_string_opt m)
    | _ -> None
  in
  match parsed with
  | None ->
      err t 401 "bad-argument: RANGE takes min-x min-y max-x max-y [min-mass]"
  | Some (min_x, min_y, max_x, max_y, min_mass) -> (
      match
        Query.range t.query ~engine:t.engine ~min_x ~min_y ~max_x ~max_y
          ~min_mass
      with
      | exception Invalid_argument msg -> err t 401 ("bad-argument: " ^ msg)
      | answers ->
          let b = ok_count t (List.length answers) in
          List.iter
            (fun (a : Query.answer) ->
              add_answer b a.Query.a_obj a.Query.a_mass a.Query.a_xyz)
            answers;
          finish t)

let handle_events t rest =
  match int_of_string_opt (String.trim rest) with
  | None -> err t 401 "bad-argument: EVENTS takes one since-epoch"
  | Some since ->
      let events = Query.events_since t.query ~epoch:since in
      let b = ok_count t (List.length events) in
      List.iter
        (fun ev -> Buffer.add_string b (Format.asprintf "%a\n" Event.pp ev))
        events;
      finish t

let handle_stats t =
  let s = Engine.stats t.engine in
  let bool b = if b then 1 else 0 in
  let kvs =
    [
      ("epoch", Engine.epoch t.engine);
      ("known_objects", Engine.num_known t.engine);
      ("queue_depth", Admission.length t.queue);
      ("queue_capacity", Admission.capacity t.queue);
      ("admitted", t.admitted);
      ("busy_rejections", Admission.overflows t.queue);
      ("events_seen", Query.events_seen t.query);
      ("events_dropped", Query.events_dropped t.query);
      ("paused", bool t.paused);
      ("draining", bool t.draining);
      ("halted", bool (t.halted <> None));
    ]
    @ List.map
        (fun (fault, n) -> ("fault." ^ Ingest.fault_name fault, n))
        (Ingest.counters t.guard)
    @ [
        ("engine.degraded_epochs", s.Engine.degraded_epochs);
        ("engine.degraded_events", s.Engine.degraded_events);
      ]
  in
  let b = ok_count t (List.length kvs) in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b ' ';
      add_int b v;
      Buffer.add_char b '\n')
    kvs;
  finish t

let handle_drain t =
  match t.halted with
  | Some msg -> halted_reply t msg
  | None -> (
      drain t;
      match t.halted with
      | Some msg -> halted_reply t msg
      | None -> ok_int t (Engine.epoch t.engine))

let handle_line t line =
  if String.length line > Framing.max_line_bytes then
    err t 413 "line too long"
  else
    let line = String.trim line in
    if line = "" then ("", false)
    else
      let cmd, rest =
        match String.index_opt line ' ' with
        | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
        | None -> (line, "")
      in
      match cmd with
      | "PING" -> ("OK pong\n", false)
      | "PUT" -> handle_put t rest
      | "SYNC" -> handle_sync t
      | "AT" -> handle_at t rest
      | "RANGE" -> handle_range t rest
      | "NEAR" -> handle_near t rest
      | "EVENTS" -> handle_events t rest
      | "STATS" -> handle_stats t
      | "PAUSE" ->
          t.paused <- true;
          ("OK paused\n", false)
      | "RESUME" ->
          t.paused <- false;
          ("OK running\n", false)
      | "DRAIN" -> handle_drain t
      | "QUIT" -> ("OK bye\n", true)
      | _ -> err t 400 ("unknown-command " ^ cmd)
