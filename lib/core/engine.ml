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

type stats = {
  degraded_epochs : int;
  degraded_events : int;
}

type journal_entry =
  | Journal_step of Rfid_model.Types.observation
  | Journal_degraded of Rfid_model.Types.epoch * Rfid_model.Types.tag list

type t = {
  filter : Factored_filter.t;
  cfg : Config.t;
  reports : Report_queue.t;
  mutable degraded_run : int;  (* consecutive degraded epochs, 0 after a normal step *)
  mutable journal : (journal_entry -> unit) option;
}

let create ~world ~params ~config ~init_reader ?(seed = 0) () =
  let rng = Rfid_prob.Rng.create ~seed in
  let filter = Factored_filter.create ~world ~params ~config ~init_reader ~rng in
  {
    filter;
    cfg = config;
    reports =
      Report_queue.create ~delay:config.Config.report_delay
        ~estimate:(Factored_filter.estimate filter);
    degraded_run = 0;
    journal = None;
  }

let set_journal t j = t.journal <- j
let estimate t obj = Factored_filter.estimate t.filter obj
let reader_estimate t = Factored_filter.reader_estimate t.filter
let num_known t = Factored_filter.num_known t.filter
let changes_dirty_all t = Factored_filter.changes_dirty_all t.filter
let iter_dirty_changes t f = Factored_filter.iter_dirty t.filter f
let clear_changes t = Factored_filter.clear_changes t.filter

let iter_estimates t f =
  (* Ascending-id order without a per-call sort: the filter keeps its
     known set as an insertion-sorted array. *)
  Factored_filter.iter_known t.filter (fun id ->
      match estimate t id with Some (m, c) -> f id m c | None -> ())

let epoch t = Factored_filter.epoch t.filter
let objects_processed_last_step t = Factored_filter.objects_processed_last_step t.filter
let config t = t.cfg

let stats t =
  {
    degraded_epochs = Factored_filter.degraded_epochs t.filter;
    degraded_events = Report_queue.degraded_events t.reports;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[degraded epochs: %d, degraded events: %d@]" s.degraded_epochs
    s.degraded_events

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
  Factored_filter.step t.filter obs;
  let t_rep = Obs.start sp_report in
  Report_queue.schedule t.reports ~epoch:e (Factored_filter.newly_seen t.filter);
  let events = Report_queue.drain_due t.reports ~at:e ~degraded:false in
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
  Factored_filter.dead_reckon t.filter ~shelf_tags ~epoch:e;
  t.degraded_run <- t.degraded_run + 1;
  (* Reports falling due mid-outage still honor the delay policy;
     their events are flagged so consumers can discount them. *)
  let t_rep = Obs.start sp_report in
  let events = Report_queue.drain_due t.reports ~at:e ~degraded:true in
  Obs.stop sp_report t_rep;
  Obs.incr c_epochs 1;
  Obs.incr c_degraded_epochs 1;
  Obs.stop sp_step_degraded t0;
  events

let flush t = Report_queue.flush t.reports ~at:(epoch t) ~degraded:(t.degraded_run > 0)

let run t stream =
  let events = List.concat_map (fun obs -> step t obs) stream in
  events @ flush t

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

type snapshot = {
  es_filter : Factored_filter.snapshot;
  es_pending : (int * int) list;
  es_scheduled : int list;
  es_degraded_run : int;
  es_degraded_event_count : int;
}

let snapshot t =
  {
    es_filter = Factored_filter.snapshot t.filter;
    es_pending = Report_queue.pending t.reports;
    es_scheduled = Report_queue.scheduled t.reports;
    es_degraded_run = t.degraded_run;
    es_degraded_event_count = Report_queue.degraded_events t.reports;
  }

let snapshot_epoch s = Factored_filter.snapshot_epoch s.es_filter

let restore ~world ~params ~config s =
  let filter = Factored_filter.restore ~world ~params ~config s.es_filter in
  {
    filter;
    cfg = config;
    reports =
      Report_queue.restore ~delay:config.Config.report_delay
        ~estimate:(Factored_filter.estimate filter) ~pending:s.es_pending
        ~scheduled:s.es_scheduled ~degraded_events:s.es_degraded_event_count;
    degraded_run = s.es_degraded_run;
    journal = None;
  }
