let header = "# rfid_streams observations v1"

let tag_to_token = Types.tag_to_string

let ( let* ) = Result.bind

let tag_of_token line_no tok =
  match String.index_opt tok ':' with
  | Some i -> (
      let kind = String.sub tok 0 i in
      let id =
        int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
      in
      match (kind, id) with
      | _, None ->
          Error (Printf.sprintf "Trace_io: line %d: bad tag id in %S" line_no tok)
      | _, Some id when id < 0 ->
          Error (Printf.sprintf "Trace_io: line %d: negative tag id in %S" line_no tok)
      | "obj", Some id -> Ok (Types.Object_tag id)
      | "shelf", Some id -> Ok (Types.Shelf_tag id)
      | _, Some _ ->
          Error (Printf.sprintf "Trace_io: line %d: unknown tag kind %S" line_no tok))
  | None -> Error (Printf.sprintf "Trace_io: line %d: malformed tag %S" line_no tok)

let write_observations oc observations =
  output_string oc (header ^ "\n");
  output_string oc "epoch,reported_x,reported_y,reported_z,tags\n";
  List.iter
    (fun (o : Types.observation) ->
      let l = o.Types.o_reported_loc in
      Printf.fprintf oc "%d,%.6f,%.6f,%.6f,%s\n" o.Types.o_epoch l.Rfid_geom.Vec3.x
        l.Rfid_geom.Vec3.y l.Rfid_geom.Vec3.z
        (String.concat ";" (List.map tag_to_token o.Types.o_read_tags)))
    observations

(* Fields are trimmed individually, so CRLF line endings and stray
   spaces around separators parse cleanly; epochs must be non-negative
   and coordinates finite — a NaN or inf in the file would otherwise
   propagate straight into particle weights. *)
let parse_line line_no line =
  match List.map String.trim (String.split_on_char ',' line) with
  | [ epoch; x; y; z; tags ] ->
      let num what s =
        match float_of_string_opt s with
        | Some v when Float.is_finite v -> Ok v
        | Some _ ->
            Error (Printf.sprintf "Trace_io: line %d: non-finite %s %S" line_no what s)
        | None -> Error (Printf.sprintf "Trace_io: line %d: bad %s %S" line_no what s)
      in
      let* e =
        match int_of_string_opt epoch with
        | None ->
            Error (Printf.sprintf "Trace_io: line %d: bad epoch %S" line_no epoch)
        | Some e when e < 0 ->
            Error (Printf.sprintf "Trace_io: line %d: negative epoch %d" line_no e)
        | Some e -> Ok e
      in
      let* x = num "x" x in
      let* y = num "y" y in
      let* z = num "z" z in
      let* tags =
        if tags = "" then Ok []
        else
          List.fold_left
            (fun acc tok ->
              let* acc = acc in
              let* tag = tag_of_token line_no (String.trim tok) in
              Ok (tag :: acc))
            (Ok [])
            (String.split_on_char ';' tags)
          |> Result.map List.rev
      in
      Ok
        {
          Types.o_epoch = e;
          o_reported_loc = Rfid_geom.Vec3.make x y z;
          o_read_tags = tags;
        }
  | _ -> Error (Printf.sprintf "Trace_io: line %d: expected 5 fields" line_no)

let fold_lines lines ~on_obs ~on_error =
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && (not (String.length line > 0 && line.[0] = '#')) then
        if String.length line >= 5 && String.sub line 0 5 = "epoch" then ()
        else
          match parse_line (i + 1) line with
          | Ok obs -> on_obs obs
          | Error msg -> on_error (i + 1) msg)
    lines

let observation_of_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Error "Trace_io: not a data line"
  else if String.length line >= 5 && String.sub line 0 5 = "epoch" then
    Error "Trace_io: not a data line (column header)"
  else parse_line 1 line

let observation_to_line (o : Types.observation) =
  let l = o.Types.o_reported_loc in
  Printf.sprintf "%d,%.6f,%.6f,%.6f,%s" o.Types.o_epoch l.Rfid_geom.Vec3.x
    l.Rfid_geom.Vec3.y l.Rfid_geom.Vec3.z
    (String.concat ";" (List.map tag_to_token o.Types.o_read_tags))

let observations_of_lines lines =
  let out = ref [] in
  fold_lines lines
    ~on_obs:(fun obs -> out := obs :: !out)
    ~on_error:(fun _ msg -> failwith msg);
  List.rev !out

let observations_of_lines_lenient lines =
  let out = ref [] and errors = ref [] in
  fold_lines lines
    ~on_obs:(fun obs -> out := obs :: !out)
    ~on_error:(fun line_no msg -> errors := (line_no, msg) :: !errors);
  (List.rev !out, List.rev !errors)

let input_lines ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  List.rev !lines

let read_observations ic = observations_of_lines (input_lines ic)
let read_observations_lenient ic = observations_of_lines_lenient (input_lines ic)

let observations_to_string observations =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf "epoch,reported_x,reported_y,reported_z,tags\n";
  List.iter
    (fun (o : Types.observation) ->
      let l = o.Types.o_reported_loc in
      Buffer.add_string buf
        (Printf.sprintf "%d,%.6f,%.6f,%.6f,%s\n" o.Types.o_epoch l.Rfid_geom.Vec3.x
           l.Rfid_geom.Vec3.y l.Rfid_geom.Vec3.z
           (String.concat ";" (List.map tag_to_token o.Types.o_read_tags))))
    observations;
  Buffer.contents buf

let observations_of_string_lenient s =
  observations_of_lines_lenient (String.split_on_char '\n' s)

let write_events oc events =
  output_string oc "epoch,obj,x,y,z\n";
  List.iter
    (fun (epoch, obj, (l : Rfid_geom.Vec3.t)) ->
      Printf.fprintf oc "%d,%d,%.6f,%.6f,%.6f\n" epoch obj l.Rfid_geom.Vec3.x
        l.Rfid_geom.Vec3.y l.Rfid_geom.Vec3.z)
    events
