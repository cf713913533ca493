(* Small shared helpers: the monotonic clock, sample statistics, and
   filesystem chores. *)

(* Monotonic nanosecond clock (CLOCK_MONOTONIC via bechamel's stub),
   in seconds. Every duration the benchmark reports is a difference of
   two readings of this clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A growable float sample buffer, cheap to append to inside timed
   loops. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len

let sum s =
  let acc = ref 0. in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

let mean s = if s.len = 0 then 0. else sum s /. float_of_int s.len

let max_of s =
  let m = ref 0. in
  for i = 0 to s.len - 1 do
    m := Float.max !m s.data.(i)
  done;
  !m

(* Nearest-rank quantile; 0 for an empty set. *)
let quantile s q =
  if s.len = 0 then 0.
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int s.len)) in
    a.(Int.max 0 (Int.min (s.len - 1) (rank - 1)))
  end

let median_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latencies of one kind, pooled and also split by due time into
   [slices] equal parts of the timed phase. *)
type windowed = { all : samples; slices : samples array; span : float }

let slices = 4

let windowed ~span = { all = samples (); slices = Array.init slices (fun _ -> samples ()); span }

let add_at w ~offset v =
  add w.all v;
  let i = int_of_float (float_of_int slices *. offset /. w.span) in
  add w.slices.(Int.max 0 (Int.min (slices - 1) i)) v

(* The tail reported end to end: each slice's p99, median over slices.
   On a shared host a few disturbed seconds double a pooled p99 in some
   runs and not in others; they move one slice's p99, not the median. *)
let tail_p99 w = median_list (Array.to_list (Array.map (fun s -> quantile s 0.99) w.slices))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Reads to end of file rather than trusting the file size, which
   /proc reports as 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let lines_of_file path =
  match read_file path with
  | exception Sys_error _ -> []
  | s -> String.split_on_char '\n' s

(* Filesystem type of the mount holding [path]: the longest mount point
   in /proc/self/mountinfo that prefixes it. *)
let fs_type path =
  let best = ref ("", "unknown") in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | _ :: _ :: _ :: _ :: mount :: rest -> (
          let rec after_sep = function
            | "-" :: fstype :: _ -> Some fstype
            | _ :: tl -> after_sep tl
            | [] -> None
          in
          let inside =
            mount = "/"
            || path = mount
            || starts_with ~prefix:(mount ^ "/") path
          in
          match after_sep rest with
          | Some fstype
            when inside && String.length mount >= String.length (fst !best) ->
              best := (mount, fstype)
          | _ -> ())
      | _ -> ())
    (lines_of_file "/proc/self/mountinfo");
  snd !best

(* Peak resident set ("VmHWM") of a live process, in MiB. *)
let vm_hwm_mib pid =
  List.find_map
    (fun line ->
      if starts_with ~prefix:"VmHWM:" line then
        Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      else None)
    (lines_of_file (Printf.sprintf "/proc/%d/status" pid))

(* The commit a checkout was taken from, when it still carries its .git
   metadata; "unknown" otherwise. *)
let git_commit () =
  match lines_of_file ".git/HEAD" with
  | head :: _ when starts_with ~prefix:"ref: " head -> (
      let ref_path = String.sub head 5 (String.length head - 5) in
      match lines_of_file (Filename.concat ".git" ref_path) with
      | sha :: _ when sha <> "" -> sha
      | _ -> "unknown")
  | sha :: _ when String.length sha = 40 -> sha
  | _ -> "unknown"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A finite float in full precision, as JSON. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
