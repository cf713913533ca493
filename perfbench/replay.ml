(* In-process replay of a live run: the same request batches, in the
   same order, through [Framing.feed], [Core.handle_line] and
   [Core.tick] on a Bootstrap-built core, with durability hooks wired as
   `rfid_clean serve` wires them. Untimed, it is the reference the
   output check compares the live server against; timed, each top-level
   call and each durability call is measured with the monotonic clock
   for the per-layer breakdown. *)

open Util

type timings = {
  framing : samples;  (* per Framing.feed call *)
  mutable framed_lines : int;
  verbs : (string, samples) Hashtbl.t;  (* handle_line, per request verb *)
  tick : samples;  (* per Core.tick call *)
  mutable tick_epochs : int;
  mutable range_answers : int;
  wal_append : samples;
  checkpoint_save : samples;
}

let new_timings () =
  {
    framing = samples ();
    framed_lines = 0;
    verbs = Hashtbl.create 8;
    tick = samples ();
    tick_epochs = 0;
    range_answers = 0;
    wal_append = samples ();
    checkpoint_save = samples ();
  }

let verb_samples tm verb =
  match Hashtbl.find_opt tm.verbs verb with
  | Some s -> s
  | None ->
      let s = samples () in
      Hashtbl.replace tm.verbs verb s;
      s

(* One histogram of the registry, read when the replay loop ends: the
   registry keeps recording during the output-check queries after it. *)
type hist = { h_count : int; h_sum : float; h_p50 : float; h_p99 : float }

type result = {
  greeting : string;
  busy_s : float;  (* wall time of the whole request loop *)
  layer_s : float;  (* sum of the timed top-level calls (timed runs) *)
  epochs : int;  (* engine epochs the loop advanced *)
  checks : string list;  (* replies to the output-check requests *)
  timings : timings;
  gc_minor_words : float;
  gc_major_collections : int;
  registry : (string * int) list * (string * hist) list;
      (* counters and histograms, read right after the loop *)
  checkpoint_bytes : int;
}

let verb_of line =
  match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line

(* Group the send log into batches of per-connection chunks. *)
let batches (log : Live.sent list) =
  let rec go acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | (s : Live.sent) :: rest -> (
        match cur with
        | (prev : Live.sent) :: _ when prev.batch <> s.batch ->
            go (List.rev cur :: acc) [ s ] rest
        | _ -> go acc (s :: cur) rest)
  in
  go [] [] log
  |> List.map (fun batch ->
         List.filter_map
           (fun id ->
             match List.filter (fun (s : Live.sent) -> s.conn_id = id) batch with
             | [] -> None
             | ss ->
                 Some
                   ( id,
                     String.concat ""
                       (List.map (fun (s : Live.sent) -> s.line_sent ^ "\n") ss) ))
           [ 0; 1 ])

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let run (inp : Workload.inputs) ~(log : Live.sent list) ~checks ~timed ~dir =
  let spec = inp.Workload.spec in
  let boot =
    Rfid_serve.Bootstrap.make ~objects:spec.Workload.objects ~seed:Workload.engine_seed
      ~variant:Rfid_core.Config.Factorized_indexed ~particles:Workload.particles ()
  in
  let engine = Rfid_serve.Bootstrap.fresh_engine boot in
  let guard = Rfid_serve.Bootstrap.fresh_guard boot in
  let tm = new_timings () in
  let measure acc f =
    if timed then begin
      let t0 = now () in
      let r = f () in
      add acc (now () -. t0);
      r
    end
    else f ()
  in
  (* Durability, wired as `rfid_clean serve --wal --events --checkpoint
     --checkpoint-keep 2` does: journal every admitted epoch to the WAL,
     append events durably, and before each checkpoint sync the WAL and
     the events file. *)
  let durable =
    if not spec.Workload.durable then None
    else begin
      Unix.mkdir dir 0o755;
      let ck = Filename.concat dir "ck" in
      Rfid_robust.Checkpoint.clear_rotation ~dir:ck;
      let wal =
        Rfid_robust.Wal.create_writer ~fsync_every:8 ~path:(Filename.concat dir "wal.log") ()
      in
      let events =
        Unix.openfile (Filename.concat dir "events.log")
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
          0o644
      in
      Rfid_core.Engine.set_journal engine
        (Some
           (fun entry ->
             measure tm.wal_append (fun () ->
                 Rfid_robust.Wal.append wal
                   (match entry with
                   | Rfid_core.Engine.Journal_step o -> Rfid_robust.Wal.Step o
                   | Rfid_core.Engine.Journal_degraded (e, tags) ->
                       Rfid_robust.Wal.Degraded (e, tags)))));
      Some (wal, events, ck)
    end
  in
  let hooks =
    match durable with
    | None -> Rfid_serve.Core.no_hooks
    | Some (wal, events, ck) ->
        {
          Rfid_serve.Core.on_events =
            (fun evs ->
              List.iter
                (fun ev ->
                  Rfid_robust.Durable.write events
                    (Format.asprintf "%a\n" Rfid_core.Event.pp ev))
                evs);
          on_flush_mark = (fun () -> Rfid_robust.Durable.write events "# flush\n");
          on_admitted = (fun _ -> ());
          on_checkpoint =
            (fun eng ->
              measure tm.checkpoint_save (fun () ->
                  Rfid_robust.Wal.sync wal;
                  Rfid_robust.Durable.fsync events;
                  Rfid_robust.Checkpoint.save_rotating ~dir:ck ~keep:2
                    (Rfid_core.Engine.snapshot eng)));
        }
  in
  let core =
    Rfid_serve.Core.create ~guard ~engine ~num_objects:spec.Workload.objects
      ~checkpoint_every:(if spec.Workload.durable then 1000 else 0)
      ~hooks ()
  in
  let framers = [| Rfid_serve.Framing.create_buffer (); Rfid_serve.Framing.create_buffer () |] in
  let layer = ref 0. in
  let timed_call acc f =
    if timed then begin
      let t0 = now () in
      let r = f () in
      let dt = now () -. t0 in
      add acc dt;
      layer := !layer +. dt;
      r
    end
    else f ()
  in
  let handle line =
    let verb = verb_of line in
    let reply, _ =
      timed_call (verb_samples tm verb) (fun () -> Rfid_serve.Core.handle_line core line)
    in
    if timed && verb = "RANGE" && starts_with ~prefix:"OK " reply then
      match String.index_opt reply '\n' with
      | Some i -> (
          match int_of_string_opt (String.sub reply 3 (i - 3)) with
          | Some n -> tm.range_answers <- tm.range_answers + n
          | None -> ())
      | None -> ()
  in
  let batches = batches log in
  let gc0 = Gc.quick_stat () in
  let epoch0 = Rfid_serve.Core.admitted core in
  let t0 = now () in
  List.iter
    (fun chunks ->
      List.iter
        (fun (id, chunk) ->
          let events =
            timed_call tm.framing (fun () -> Rfid_serve.Framing.feed framers.(id) chunk)
          in
          List.iter
            (function
              | Rfid_serve.Framing.Line line ->
                  tm.framed_lines <- tm.framed_lines + 1;
                  handle line
              | Rfid_serve.Framing.Overflow -> ())
            events)
        chunks;
      let n =
        timed_call tm.tick (fun () -> Rfid_serve.Core.tick core ~max_steps:256)
      in
      tm.tick_epochs <- tm.tick_epochs + n)
    batches;
  let busy_s = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let epochs = Rfid_serve.Core.admitted core - epoch0 in
  let registry =
    ( Rfid_obs.Metrics.counters_list Rfid_obs.Metrics.global,
      List.map
        (fun (name, h) ->
          let q p = if Rfid_obs.Metrics.histogram_count h = 0 then 0. else Rfid_obs.Metrics.quantile h p in
          ( name,
            {
              h_count = Rfid_obs.Metrics.histogram_count h;
              h_sum = Rfid_obs.Metrics.histogram_sum h;
              h_p50 = q 0.5;
              h_p99 = q 0.99;
            } ))
        (Rfid_obs.Metrics.histograms_list Rfid_obs.Metrics.global) )
  in
  ignore (Rfid_serve.Core.handle_line core "SYNC");
  let checks = List.map (fun q -> fst (Rfid_serve.Core.handle_line core q)) checks in
  let checkpoint_bytes =
    match durable with
    | None -> 0
    | Some (wal, events, ck) ->
        Rfid_robust.Wal.close wal;
        Unix.close events;
        (match Sys.readdir ck with
        | files ->
            Array.fold_left
              (fun acc f -> Int.max acc (file_size (Filename.concat ck f)))
              0 files
        | exception Sys_error _ -> 0)
  in
  {
    greeting = Rfid_serve.Core.greeting core;
    busy_s;
    layer_s = !layer;
    epochs;
    checks;
    timings = tm;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    registry;
    checkpoint_bytes;
  }

(* Trace_io parse cost, measured apart from the loop: one timer around a
   pass over every PUT payload. *)
let parse_ns_per_line (inp : Workload.inputs) =
  let lines = inp.Workload.lines in
  let t0 = now () in
  Array.iter (fun l -> ignore (Rfid_model.Trace_io.observation_of_line l)) lines;
  (now () -. t0) *. 1e9 /. float_of_int (Int.max 1 (Array.length lines))
