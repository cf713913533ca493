let sanitize_name name =
  let buf = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      in
      if i = 0 && c >= '0' && c <= '9' then Buffer.add_char buf '_';
      Buffer.add_char buf (if ok then c else '_'))
    name;
  Buffer.contents buf

let num v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let render () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let n = sanitize_name name in
      line "# TYPE %s counter" n;
      line "%s_total %d" n v)
    (Metrics.counters_list Metrics.global);
  List.iter
    (fun (name, v) ->
      let n = sanitize_name name in
      line "# TYPE %s gauge" n;
      line "%s %s" n (num v))
    (Metrics.gauges_list ());
  List.iter
    (fun (name, h) ->
      let n = sanitize_name name in
      line "# TYPE %s summary" n;
      let count = Metrics.histogram_count h in
      if count > 0 then begin
        List.iter
          (fun q ->
            line "%s{quantile=\"%s\"} %s" n
              (match q with 0.5 -> "0.5" | 0.95 -> "0.95" | _ -> "0.99")
              (num (Metrics.quantile h q)))
          [ 0.5; 0.95; 0.99 ];
        line "%s_sum %s" n (num (Metrics.histogram_sum h))
      end;
      line "%s_count %d" n count)
    (Metrics.histograms_list Metrics.global);
  line "# EOF";
  Buffer.contents buf
