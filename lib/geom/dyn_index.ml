(* Uniform grid over packed (cx, cy) keys. Entry state lives in
   parallel arrays indexed by handle; buckets hold handles and are
   derived data — rehashing (on cell-size retune or [clear]) rebuilds
   them from the entry arrays alone. *)

let max_span_cells = 64

module Hits = struct
  type 'a t = { mutable buf : 'a array; mutable len : int; dummy : 'a }

  let create ~dummy = { buf = [||]; len = 0; dummy }
  let length h = h.len

  let get h i =
    if i < 0 || i >= h.len then invalid_arg "Dyn_index.Hits.get: index out of range";
    h.buf.(i)

  let clear h =
    (* Drop value references so a cleared buffer does not pin old hits
       for the GC; the array itself is kept for reuse. *)
    Array.fill h.buf 0 h.len h.dummy;
    h.len <- 0

  let push h v =
    let cap = Array.length h.buf in
    if h.len = cap then begin
      let bigger = Array.make (Int.max 4 (2 * cap)) h.dummy in
      Array.blit h.buf 0 bigger 0 cap;
      h.buf <- bigger
    end;
    h.buf.(h.len) <- v;
    h.len <- h.len + 1
end

(* Growable handle list: the per-cell bucket and the oversize stack.
   Swap-pop removal keeps an update O(bucket length). *)
type bucket = { mutable ids : int array; mutable n : int }

let bucket_create () = { ids = [||]; n = 0 }

let bucket_push b id =
  let cap = Array.length b.ids in
  if b.n = cap then begin
    let bigger = Array.make (Int.max 4 (2 * cap)) 0 in
    Array.blit b.ids 0 bigger 0 cap;
    b.ids <- bigger
  end;
  b.ids.(b.n) <- id;
  b.n <- b.n + 1

let bucket_remove b id =
  let rec find i = if i >= b.n then -1 else if b.ids.(i) = id then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then begin
    b.ids.(i) <- b.ids.(b.n - 1);
    b.n <- b.n - 1
  end

type 'a t = {
  dummy : 'a;
  mutable values : 'a array;
  mutable boxes : Box2.t array;
  mutable alive : bool array;
  (* Covered cell range at registration time; [ox0 > ox1] marks an
     oversize entry (kept on [oversize], not in buckets). *)
  mutable ox0 : int array;
  mutable oy0 : int array;
  mutable ox1 : int array;
  mutable oy1 : int array;
  mutable seen : int array;  (* query-generation stamp, for dedup *)
  mutable cap : int;  (* slots allocated; handles live in [0, cap) *)
  mutable hi : int;  (* slots ever used; live handles are < hi *)
  buckets : (int, bucket) Hashtbl.t;
  oversize : bucket;
  mutable cell : float;
  mutable count : int;
  mutable extent_sum : float;  (* sum of max(width, height) over live entries *)
  mutable query_gen : int;
}

let zero_box = Box2.make ~min_x:0. ~min_y:0. ~max_x:0. ~max_y:0.

let create ~dummy () =
  {
    dummy;
    values = [||];
    boxes = [||];
    alive = [||];
    ox0 = [||];
    oy0 = [||];
    ox1 = [||];
    oy1 = [||];
    seen = [||];
    cap = 0;
    hi = 0;
    buckets = Hashtbl.create 64;
    oversize = bucket_create ();
    cell = 1.0;
    count = 0;
    extent_sum = 0.;
    query_gen = 0;
  }

let size t = t.count
let cell_size t = t.cell

(* Cells are addressed by floor(coord / cell), clamped to
   [-max_cell, max_cell] so that far finite coordinates (where
   [int_of_float] would overflow) still map monotonically: a box and a
   probe that intersect always share a covered cell, the clamped edge
   cells just hold more candidates. The two signed 31-bit halves pack
   into one immediate int key, so bucket lookups allocate nothing. *)
let max_cell = (1 lsl 30) - 1
let max_cell_f = float_of_int max_cell
let cell_key cx cy = ((cx land 0x7FFFFFFF) lsl 31) lor (cy land 0x7FFFFFFF)

let cell_of t v =
  let c = Float.floor (v /. t.cell) in
  if c >= max_cell_f then max_cell else if c <= -.max_cell_f then -max_cell else int_of_float c

let extent (b : Box2.t) = Float.max (b.Box2.max_x -. b.Box2.min_x) (b.Box2.max_y -. b.Box2.min_y)

let find_bucket t key =
  match Hashtbl.find t.buckets key with
  | b -> b
  | exception Not_found ->
      let b = bucket_create () in
      Hashtbl.add t.buckets key b;
      b

(* Register slot [id]'s box into the grid (or the oversize list) under
   the current cell size, recording the covered range for removal. *)
let link t id =
  let b = t.boxes.(id) in
  let cx0 = cell_of t b.Box2.min_x and cx1 = cell_of t b.Box2.max_x in
  let cy0 = cell_of t b.Box2.min_y and cy1 = cell_of t b.Box2.max_y in
  let spanx = cx1 - cx0 + 1 and spany = cy1 - cy0 + 1 in
  if spanx > max_span_cells || spany > max_span_cells || spanx * spany > max_span_cells
  then begin
    t.ox0.(id) <- 1;
    t.ox1.(id) <- 0;
    bucket_push t.oversize id
  end
  else begin
    t.ox0.(id) <- cx0;
    t.oy0.(id) <- cy0;
    t.ox1.(id) <- cx1;
    t.oy1.(id) <- cy1;
    for cx = cx0 to cx1 do
      for cy = cy0 to cy1 do
        bucket_push (find_bucket t (cell_key cx cy)) id
      done
    done
  end

let unlink t id =
  if t.ox0.(id) > t.ox1.(id) then bucket_remove t.oversize id
  else
    for cx = t.ox0.(id) to t.ox1.(id) do
      for cy = t.oy0.(id) to t.oy1.(id) do
        match Hashtbl.find t.buckets (cell_key cx cy) with
        | b -> bucket_remove b id
        | exception Not_found -> ()
      done
    done

let rehash t ~cell =
  t.cell <- cell;
  Hashtbl.reset t.buckets;
  t.oversize.n <- 0;
  for id = 0 to t.hi - 1 do
    if t.alive.(id) then link t id
  done

(* Self-tuning: aim the cell at twice the mean live extent, but only
   rehash when the population has drifted a factor of 4 away — boxes
   breathe every epoch, and chasing them would rehash constantly. *)
let maybe_retune t =
  if t.count >= 16 then begin
    let desired = Float.max 1e-6 (2. *. t.extent_sum /. float_of_int t.count) in
    if t.cell > 4. *. desired || 4. *. t.cell < desired then rehash t ~cell:desired
  end

let grow t n =
  let cap = Int.max n (Int.max 8 (2 * t.cap)) in
  let extend dflt a =
    let bigger = Array.make cap dflt in
    Array.blit a 0 bigger 0 t.cap;
    bigger
  in
  t.values <- extend t.dummy t.values;
  t.boxes <- extend zero_box t.boxes;
  t.alive <- extend false t.alive;
  t.ox0 <- extend 0 t.ox0;
  t.oy0 <- extend 0 t.oy0;
  t.ox1 <- extend 0 t.ox1;
  t.oy1 <- extend 0 t.oy1;
  t.seen <- extend 0 t.seen;
  t.cap <- cap

let insert t box v =
  if t.hi = t.cap then grow t (t.hi + 1);
  let id = t.hi in
  t.hi <- t.hi + 1;
  t.values.(id) <- v;
  t.boxes.(id) <- box;
  t.alive.(id) <- true;
  t.count <- t.count + 1;
  t.extent_sum <- t.extent_sum +. extent box;
  link t id;
  maybe_retune t;
  id

let check_live t h ~what =
  if h < 0 || h >= t.hi || not t.alive.(h) then
    invalid_arg (Printf.sprintf "Dyn_index.%s: dead or out-of-range handle %d" what h)

let update t h box v =
  check_live t h ~what:"update";
  unlink t h;
  t.extent_sum <- t.extent_sum -. extent t.boxes.(h) +. extent box;
  t.boxes.(h) <- box;
  t.values.(h) <- v;
  link t h;
  maybe_retune t

let push_hit t hits id probe =
  if t.seen.(id) <> t.query_gen then begin
    t.seen.(id) <- t.query_gen;
    if Box2.intersects t.boxes.(id) probe then Hits.push hits t.values.(id)
  end

let query_into t probe hits =
  Hits.clear hits;
  if t.count > 0 then begin
    t.query_gen <- t.query_gen + 1;
    let cx0 = cell_of t probe.Box2.min_x and cx1 = cell_of t probe.Box2.max_x in
    let cy0 = cell_of t probe.Box2.min_y and cy1 = cell_of t probe.Box2.max_y in
    let spanx = float_of_int (cx1 - cx0 + 1) and spany = float_of_int (cy1 - cy0 + 1) in
    (* A probe covering far more cells than there are entries would
       walk empty buckets; scanning the entries directly is cheaper. *)
    if spanx *. spany > float_of_int ((4 * t.count) + 64) then begin
      for id = 0 to t.hi - 1 do
        if t.alive.(id) && Box2.intersects t.boxes.(id) probe then
          Hits.push hits t.values.(id)
      done
    end
    else begin
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          match Hashtbl.find t.buckets (cell_key cx cy) with
          | b ->
              for i = 0 to b.n - 1 do
                push_hit t hits b.ids.(i) probe
              done
          | exception Not_found -> ()
        done
      done;
      for i = 0 to t.oversize.n - 1 do
        push_hit t hits t.oversize.ids.(i) probe
      done
    end
  end

let iter t f =
  for id = 0 to t.hi - 1 do
    if t.alive.(id) then f id t.boxes.(id) t.values.(id)
  done

let clear t =
  Hashtbl.reset t.buckets;
  t.oversize.n <- 0;
  Array.fill t.values 0 t.cap t.dummy;
  Array.fill t.alive 0 t.cap false;
  t.hi <- 0;
  t.count <- 0;
  t.extent_sum <- 0.
