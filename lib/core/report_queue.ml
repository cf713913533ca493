module Obs = Rfid_obs.Metrics

let c_events = Obs.counter "engine.events"
let c_degraded_events = Obs.counter "engine.degraded_events"

type t = {
  delay : int;
  estimate : int -> (Rfid_geom.Vec3.t * Rfid_prob.Linalg.mat) option;
  (* (due epoch, object); due epochs are pushed in nondecreasing order
     because the delay is constant. *)
  pending : (int * int) Queue.t;
  scheduled : (int, unit) Hashtbl.t;  (* objects with a pending report *)
  mutable degraded_event_count : int;
}

let create ~delay ~estimate =
  {
    delay;
    estimate;
    pending = Queue.create ();
    scheduled = Hashtbl.create 64;
    degraded_event_count = 0;
  }

(* Schedule a report for each object that just entered scope, unless
   one is already pending from this encounter. *)
let schedule t ~epoch ids =
  List.iter
    (fun obj ->
      if not (Hashtbl.mem t.scheduled obj) then begin
        Hashtbl.replace t.scheduled obj ();
        Queue.push (epoch + t.delay, obj) t.pending
      end)
    ids

let emit t ~at ~degraded obj =
  Hashtbl.remove t.scheduled obj;
  if degraded then begin
    t.degraded_event_count <- t.degraded_event_count + 1;
    Obs.incr c_degraded_events 1
  end;
  match t.estimate obj with
  | Some (loc, cov) ->
      Obs.incr c_events 1;
      Some (Event.make ~epoch:at ~obj ~loc ~cov ~degraded ())
  | None -> None

let drain_due t ~at ~degraded =
  let events = ref [] in
  let rec drain () =
    match Queue.peek_opt t.pending with
    | Some (due, obj) when due <= at ->
        ignore (Queue.pop t.pending);
        (match emit t ~at ~degraded obj with
        | Some ev -> events := ev :: !events
        | None -> ());
        drain ()
    | Some _ | None -> ()
  in
  drain ();
  List.rev !events

let flush t ~at ~degraded =
  let events = ref [] in
  Queue.iter
    (fun (_, obj) ->
      if Hashtbl.mem t.scheduled obj then
        match emit t ~at ~degraded obj with
        | Some ev -> events := ev :: !events
        | None -> ())
    t.pending;
  Queue.clear t.pending;
  Hashtbl.reset t.scheduled;
  List.rev !events

let degraded_events t = t.degraded_event_count
let pending t = List.of_seq (Queue.to_seq t.pending)

let scheduled t =
  Hashtbl.fold (fun obj () acc -> obj :: acc) t.scheduled [] |> List.sort Int.compare

let restore ~delay ~estimate ~pending ~scheduled ~degraded_events =
  let t = create ~delay ~estimate in
  List.iter (fun item -> Queue.push item t.pending) pending;
  List.iter (fun obj -> Hashtbl.replace t.scheduled obj ()) scheduled;
  t.degraded_event_count <- degraded_events;
  t
