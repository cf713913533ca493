type filter =
  | Basic of Basic_filter.t * int (* declared object count *)
  | Factored of Factored_filter.t

(* Observability handles (process-global registry; registration is
   idempotent, so these are safe at module init). Spans time the
   engine-level stages; the filters time their internal stages under
   the same "stage." namespace. *)
module Obs = Rfid_obs.Metrics

let sp_step = Obs.span "stage.step"
let sp_step_degraded = Obs.span "stage.step_degraded"
let sp_report = Obs.span "stage.report"
let c_epochs = Obs.counter "engine.epochs"
let c_degraded_epochs = Obs.counter "engine.degraded_epochs"
let c_events = Obs.counter "engine.events"
let c_degraded_events = Obs.counter "engine.degraded_events"

type stats = {
  degraded_epochs : int;
  degraded_events : int;
}

type journal_entry =
  | Journal_step of Rfid_model.Types.observation
  | Journal_degraded of Rfid_model.Types.epoch * Rfid_model.Types.tag list

type t = {
  filter : filter;
  cfg : Config.t;
  (* Pending location reports: (due epoch, object); due epochs are
     pushed in nondecreasing order because the delay is constant. *)
  pending : (int * int) Queue.t;
  scheduled : (int, unit) Hashtbl.t;  (* objects with a pending report *)
  mutable degraded_run : int;  (* consecutive degraded epochs, 0 after a normal step *)
  mutable degraded_event_count : int;
  mutable journal : (journal_entry -> unit) option;
}

let create ~world ~params ~config ~init_reader ?num_objects ?(seed = 0) () =
  let rng = Rfid_prob.Rng.create ~seed in
  let filter =
    match config.Config.variant with
    | Config.Unfactorized -> (
        match num_objects with
        | Some n ->
            Basic (Basic_filter.create ~world ~params ~config ~init_reader ~num_objects:n ~rng, n)
        | None -> invalid_arg "Engine.create: Unfactorized variant requires num_objects")
    | Config.Factorized | Config.Factorized_indexed | Config.Factorized_compressed ->
        Factored (Factored_filter.create ~world ~params ~config ~init_reader ~rng)
  in
  {
    filter;
    cfg = config;
    pending = Queue.create ();
    scheduled = Hashtbl.create 64;
    degraded_run = 0;
    degraded_event_count = 0;
    journal = None;
  }

let set_journal t j = t.journal <- j

let filter_step t obs =
  match t.filter with
  | Basic (f, _) -> Basic_filter.step f obs
  | Factored f -> Factored_filter.step f obs

let estimate t obj =
  match t.filter with
  | Basic (f, _) -> Basic_filter.estimate f obj
  | Factored f -> Factored_filter.estimate f obj

let reader_estimate t =
  match t.filter with
  | Basic (f, _) -> Basic_filter.reader_estimate f
  | Factored f -> Factored_filter.reader_estimate f

let newly_seen t =
  match t.filter with
  | Basic (f, _) -> Basic_filter.newly_seen f
  | Factored f -> Factored_filter.newly_seen f

let iter_known t f =
  match t.filter with
  | Basic (fl, _) -> Basic_filter.iter_known fl f
  | Factored fl -> Factored_filter.iter_known fl f

let num_known t =
  match t.filter with
  | Basic (f, _) -> Basic_filter.num_known f
  | Factored f -> Factored_filter.num_known f

let changes_dirty_all t =
  match t.filter with
  | Basic (f, _) -> Basic_filter.changes_dirty_all f
  | Factored f -> Factored_filter.changes_dirty_all f

let iter_dirty_changes t f =
  match t.filter with
  | Basic (fl, _) -> Basic_filter.iter_dirty fl f
  | Factored fl -> Factored_filter.iter_dirty fl f

let clear_changes t =
  match t.filter with
  | Basic (f, _) -> Basic_filter.clear_changes f
  | Factored f -> Factored_filter.clear_changes f

let iter_estimates t f =
  (* Ascending-id order without a per-call sort: both filters maintain
     their known set in sorted form ([Factored_filter] an insertion-
     sorted array, [Basic_filter] a flag scan of the declared
     universe). *)
  iter_known t (fun id ->
      match estimate t id with Some (m, c) -> f id m c | None -> ())

let epoch t =
  match t.filter with
  | Basic (f, _) -> Basic_filter.epoch f
  | Factored f -> Factored_filter.epoch f

let objects_processed_last_step t =
  match t.filter with
  | Basic (_, n) -> n
  | Factored f -> Factored_filter.objects_processed_last_step f

let config t = t.cfg

let stats t =
  {
    degraded_epochs =
      (match t.filter with
      | Basic (f, _) -> Basic_filter.degraded_epochs f
      | Factored f -> Factored_filter.degraded_epochs f);
    degraded_events = t.degraded_event_count;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[degraded epochs: %d, degraded events: %d@]" s.degraded_epochs
    s.degraded_events

let emit t ~at ~degraded obj =
  Hashtbl.remove t.scheduled obj;
  if degraded then begin
    t.degraded_event_count <- t.degraded_event_count + 1;
    Obs.incr c_degraded_events 1
  end;
  match estimate t obj with
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

(* Epoch order is the caller's contract ([Rfid_robust.Ingest] enforces
   it on every stream that can carry a bad epoch); checked here before
   the journal hook runs, so a violation is never journaled. *)
let check_epoch t e ~what =
  let cur = epoch t in
  if e <= cur then
    invalid_arg
      (Printf.sprintf "Engine.%s: observation epoch %d does not follow current epoch %d"
         what e cur)

let step t obs =
  let e = obs.Rfid_model.Types.o_epoch in
  check_epoch t e ~what:"step";
  (* Write-ahead: the journal sees the entry before any state changes,
     so a crash after the append but before (or during) the update
     replays the epoch exactly once. *)
  (match t.journal with Some j -> j (Journal_step obs) | None -> ());
  let t0 = Obs.start sp_step in
  t.degraded_run <- 0;
  filter_step t obs;
  (* Schedule a report for each object that just entered scope, unless
     one is already pending from this encounter. *)
  let t_rep = Obs.start sp_report in
  List.iter
    (fun obj ->
      if not (Hashtbl.mem t.scheduled obj) then begin
        Hashtbl.replace t.scheduled obj ();
        Queue.push (e + t.cfg.Config.report_delay, obj) t.pending
      end)
    (newly_seen t);
  let events = drain_due t ~at:e ~degraded:false in
  Obs.stop sp_report t_rep;
  Obs.incr c_epochs 1;
  Obs.stop sp_step t0;
  events

let step_degraded ?(tags = []) t ~epoch:e =
  check_epoch t e ~what:"step_degraded";
  (match t.journal with Some j -> j (Journal_degraded (e, tags)) | None -> ());
  let t0 = Obs.start sp_step_degraded in
  (* Shelf tags read during the outage still localize the reader —
     their positions are known exactly. Object tags carry no usable
     evidence without a trusted fix and are ignored. *)
  let shelf_tags =
    List.filter_map
      (function Rfid_model.Types.Shelf_tag i -> Some i | Rfid_model.Types.Object_tag _ -> None)
      tags
    |> List.sort_uniq Int.compare
  in
  (match t.filter with
  | Basic (f, _) -> Basic_filter.dead_reckon f ~shelf_tags ~epoch:e
  | Factored f -> Factored_filter.dead_reckon f ~shelf_tags ~epoch:e);
  t.degraded_run <- t.degraded_run + 1;
  (* Reports falling due mid-outage still honor the delay policy;
     their events are flagged so consumers can discount them. *)
  let t_rep = Obs.start sp_report in
  let events = drain_due t ~at:e ~degraded:true in
  Obs.stop sp_report t_rep;
  Obs.incr c_epochs 1;
  Obs.incr c_degraded_epochs 1;
  Obs.stop sp_step_degraded t0;
  events

let flush t =
  let e = epoch t in
  let degraded = t.degraded_run > 0 in
  let events = ref [] in
  Queue.iter
    (fun (_, obj) ->
      if Hashtbl.mem t.scheduled obj then
        match emit t ~at:e ~degraded obj with
        | Some ev -> events := ev :: !events
        | None -> ())
    t.pending;
  Queue.clear t.pending;
  Hashtbl.reset t.scheduled;
  List.rev !events

let run t stream =
  let events = List.concat_map (fun obs -> step t obs) stream in
  events @ flush t

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

type filter_snapshot =
  | Basic_snapshot of Basic_filter.snapshot * int
  | Factored_snapshot of Factored_filter.snapshot

type snapshot = {
  es_filter : filter_snapshot;
  es_pending : (int * int) list;
  es_scheduled : int list;
  es_degraded_run : int;
  es_degraded_event_count : int;
}

let snapshot t =
  {
    es_filter =
      (match t.filter with
      | Basic (f, n) -> Basic_snapshot (Basic_filter.snapshot f, n)
      | Factored f -> Factored_snapshot (Factored_filter.snapshot f));
    es_pending = List.of_seq (Queue.to_seq t.pending);
    es_scheduled =
      Hashtbl.fold (fun obj () acc -> obj :: acc) t.scheduled []
      |> List.sort Int.compare;
    es_degraded_run = t.degraded_run;
    es_degraded_event_count = t.degraded_event_count;
  }

let snapshot_epoch s =
  match s.es_filter with
  | Basic_snapshot (fs, _) -> Basic_filter.snapshot_epoch fs
  | Factored_snapshot fs -> Factored_filter.snapshot_epoch fs

let restore ~world ~params ~config s =
  let filter =
    match (s.es_filter, config.Config.variant) with
    | Basic_snapshot (fs, n), Config.Unfactorized ->
        Basic (Basic_filter.restore ~world ~params ~config fs, n)
    | Factored_snapshot fs, (Config.Factorized | Config.Factorized_indexed | Config.Factorized_compressed)
      ->
        Factored (Factored_filter.restore ~world ~params ~config fs)
    | Basic_snapshot _, _ | Factored_snapshot _, _ ->
        invalid_arg "Engine.restore: snapshot variant disagrees with config.variant"
  in
  let pending = Queue.create () in
  List.iter (fun item -> Queue.push item pending) s.es_pending;
  let scheduled = Hashtbl.create 64 in
  List.iter (fun obj -> Hashtbl.replace scheduled obj ()) s.es_scheduled;
  {
    filter;
    cfg = config;
    pending;
    scheduled;
    degraded_run = s.es_degraded_run;
    degraded_event_count = s.es_degraded_event_count;
    journal = None;
  }
