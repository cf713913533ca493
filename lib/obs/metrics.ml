(* Metrics cells. Hot operations touch preallocated cells: [incr] one
   mutable int, [observe] one bucket count plus the sum/min/max floats,
   and neither allocates; registration and read-out take the registry
   mutex and may allocate freely. *)

(* ------------------------------------------------------------------ *)
(* Bucket geometry: 4 buckets per octave starting at 1e-9.            *)

let num_buckets = 256
let buckets_per_octave = 4.
let bucket_lo = 1e-9

let bucket_of_value v =
  if not (v > bucket_lo) (* catches NaN, negatives, tiny values *) then 0
  else begin
    (* Subtract logs rather than divide: [v /. bucket_lo] overflows to
       infinity for v near max_float. The clamp runs in float space so
       an infinite intermediate never reaches [int_of_float]. *)
    let f = Float.ceil (buckets_per_octave *. (Float.log2 v -. Float.log2 bucket_lo)) in
    if not (f > 0.) then 0
    else if f >= float_of_int num_buckets then num_buckets - 1
    else int_of_float f
  end

(* Geometric midpoint of bucket [i]'s bounds — the value a quantile
   query answers with before clamping into the observed [min, max]. *)
let bucket_rep i = bucket_lo *. Float.exp2 ((float_of_int i -. 0.5) /. buckets_per_octave)

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)

type counter = { mutable c_value : int }

type gauge = { mutable g_value : float }

(* Sum, min and max live in an all-float record, which OCaml stores
   unboxed, so [observe] updates them without allocating. *)
type stats = { mutable sum : float; mutable min : float; mutable max : float }
type histogram = { h_buckets : int array; h_stats : stats }

type span = { sp_name : string; sp_hist : histogram }

type metric = M_counter of counter | M_gauge of gauge | M_hist of histogram

type t = { table : (string, metric) Hashtbl.t; mu : Mutex.t }

let global = { table = Hashtbl.create 32; mu = Mutex.create () }

(* Registration always goes to [global]. *)
let register name make describe =
  let t = global in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace t.table name m;
          m)
  |> fun m ->
  match describe m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered with a different kind" name)

let counter name =
  register name
    (fun () -> M_counter { c_value = 0 })
    (function M_counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> M_gauge { g_value = Float.nan })
    (function M_gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      M_hist
        {
          h_buckets = Array.make num_buckets 0;
          h_stats = { sum = 0.; min = infinity; max = neg_infinity };
        })
    (function M_hist h -> Some h | _ -> None)

let reset t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | M_counter c -> c.c_value <- 0
          | M_gauge g -> g.g_value <- Float.nan
          | M_hist h ->
              Array.fill h.h_buckets 0 num_buckets 0;
              h.h_stats.sum <- 0.;
              h.h_stats.min <- infinity;
              h.h_stats.max <- neg_infinity)
        t.table)

(* ------------------------------------------------------------------ *)
(* Recording (hot)                                                     *)

let incr c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value
let set g v = g.g_value <- v
let gauge_value g = g.g_value

let observe h v =
  let b = bucket_of_value v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  let st = h.h_stats in
  st.sum <- st.sum +. v;
  if v < st.min then st.min <- v;
  if v > st.max then st.max <- v

(* ------------------------------------------------------------------ *)
(* Read-out (cold)                                                     *)

let histogram_count h = Array.fold_left ( + ) 0 h.h_buckets
let histogram_sum h = h.h_stats.sum
let histogram_min h = h.h_stats.min
let histogram_max h = h.h_stats.max

let quantile h q =
  let total = histogram_count h in
  if total = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let lo = histogram_min h and hi = histogram_max h in
    (* Nearest rank over the buckets. *)
    let cum = ref 0 in
    let b = ref 0 in
    let found = ref (-1) in
    while !found < 0 && !b < num_buckets do
      cum := !cum + h.h_buckets.(!b);
      if !cum >= rank then found := !b;
      b := !b + 1
    done;
    let answer = if !found < 0 then hi else bucket_rep !found in
    Float.max lo (Float.min hi answer)
  end

let span name = { sp_name = name; sp_hist = histogram name }

(* CLOCK_MONOTONIC in seconds: a span never goes negative when the wall
   clock steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let start _sp = now ()

let stop sp t0 =
  let dur = now () -. t0 in
  observe sp.sp_hist dur;
  if Trace.enabled () then
    Trace.emit ~name:sp.sp_name ~ts_us:(t0 *. 1e6) ~dur_us:(dur *. 1e6)

(* ------------------------------------------------------------------ *)
(* Listing and JSON dump                                               *)

let sorted_metrics t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters_list t =
  List.filter_map
    (function name, M_counter c -> Some (name, counter_value c) | _ -> None)
    (sorted_metrics t)

let gauges_list () =
  List.filter_map
    (function name, M_gauge g -> Some (name, g.g_value) | _ -> None)
    (sorted_metrics global)

let histograms_list t =
  List.filter_map
    (function name, M_hist h -> Some (name, h) | _ -> None)
    (sorted_metrics t)

let add_json_float buf v =
  if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.9g" v)
  else Buffer.add_string buf "null"

let add_hist_json buf h =
  let count = histogram_count h in
  if count = 0 then Buffer.add_string buf "{\"count\": 0}"
  else begin
    Buffer.add_string buf (Printf.sprintf "{\"count\": %d, \"sum\": " count);
    add_json_float buf (histogram_sum h);
    Buffer.add_string buf ", \"min\": ";
    add_json_float buf (histogram_min h);
    Buffer.add_string buf ", \"max\": ";
    add_json_float buf (histogram_max h);
    List.iter
      (fun (label, q) ->
        Buffer.add_string buf (Printf.sprintf ", \"%s\": " label);
        add_json_float buf (quantile h q))
      [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ];
    Buffer.add_char buf '}'
  end

let dump_json ?(extra = []) () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\": \"obs/v1\"";
  List.iter
    (fun (k, raw) -> Buffer.add_string buf (Printf.sprintf ", %S: %s" k raw))
    extra;
  let add_section name render items =
    Buffer.add_string buf (Printf.sprintf ", \"%s\": {" name);
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Printf.sprintf "%S: " key);
        render v)
      items;
    Buffer.add_char buf '}'
  in
  add_section "counters"
    (fun v -> Buffer.add_string buf (string_of_int v))
    (counters_list global);
  add_section "gauges" (fun v -> add_json_float buf v) (gauges_list ());
  add_section "histograms" (fun h -> add_hist_json buf h) (histograms_list global);
  Buffer.add_char buf '}';
  Buffer.contents buf
