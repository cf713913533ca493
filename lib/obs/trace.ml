(* Buffered chrome-trace sink. Events are pre-rendered to JSON on emit
   (tracing is opt-in, so this allocation never taxes an untraced run)
   and flushed in one write. A mutex guards the buffer, so spans
   stopped on different domains (a server run in a spawned domain
   beside its client, as the tests do) cannot interleave writes. *)

type sink = {
  mutable path : string option;
  buf : Buffer.t;
  mutable count : int;
  mu : Mutex.t;
}

let sink =
  {
    path = (match Sys.getenv_opt "OBS_TRACE" with Some "" -> None | p -> p);
    buf = Buffer.create 256;
    count = 0;
    mu = Mutex.create ();
  }

let enabled () = match sink.path with None -> false | Some _ -> true
let max_events = 1_000_000

let emit ~name ~ts_us ~dur_us =
  match sink.path with
  | None -> ()
  | Some _ ->
      Mutex.lock sink.mu;
      if sink.count < max_events then begin
        if sink.count > 0 then Buffer.add_string sink.buf ",\n";
        Buffer.add_string sink.buf
          (Printf.sprintf
             "{\"name\":%S,\"cat\":\"obs\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
              \"ts\":%.3f,\"dur\":%.3f}"
             name ts_us dur_us)
      end;
      sink.count <- sink.count + 1;
      Mutex.unlock sink.mu

let write_now () =
  match sink.path with
  | None -> ()
  | Some path ->
      Mutex.lock sink.mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sink.mu)
        (fun () ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc "{\"traceEvents\":[\n";
              Buffer.output_buffer oc sink.buf;
              output_string oc "\n]}\n"))

let () = at_exit write_now
