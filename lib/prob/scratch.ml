(* Each slot caches one buffer per distinct length ever requested. The
   filters only ever ask for a handful of lengths per slot (reader and
   object particle counts), so the per-slot assoc lists stay tiny and a
   linear scan beats any hashing. *)

let num_float_slots = 4
let num_int_slots = 2
let num_bits_slots = 4

type t = {
  float_slots : (int * float array) list array;
  int_slots : (int * int array) list array;
  bits_slots : Bitset.t option array;
  slab : Particle_store.t;
  rng : Rng.t;
  mutable allocations : int;
}

let create () =
  {
    float_slots = Array.make num_float_slots [];
    int_slots = Array.make num_int_slots [];
    bits_slots = Array.make num_bits_slots None;
    slab = Particle_store.create ~n:0;
    rng = Rng.create ~seed:0;
    allocations = 0;
  }

let float_buf t ~slot n =
  if slot < 0 || slot >= num_float_slots then
    invalid_arg "Scratch.float_buf: slot out of range";
  let rec find = function
    | (m, b) :: rest -> if m = n then b else find rest
    | [] ->
        let b = if n = 0 then [||] else Array.make n 0. in
        t.float_slots.(slot) <- (n, b) :: t.float_slots.(slot);
        t.allocations <- t.allocations + 1;
        b
  in
  find t.float_slots.(slot)

let int_buf t ~slot n =
  if slot < 0 || slot >= num_int_slots then
    invalid_arg "Scratch.int_buf: slot out of range";
  let rec find = function
    | (m, b) :: rest -> if m = n then b else find rest
    | [] ->
        let b = if n = 0 then [||] else Array.make n 0 in
        t.int_slots.(slot) <- (n, b) :: t.int_slots.(slot);
        t.allocations <- t.allocations + 1;
        b
  in
  find t.int_slots.(slot)

let bits t ~slot =
  if slot < 0 || slot >= num_bits_slots then invalid_arg "Scratch.bits: slot out of range";
  match t.bits_slots.(slot) with
  | Some b -> b
  | None ->
      let b = Bitset.create () in
      t.bits_slots.(slot) <- Some b;
      t.allocations <- t.allocations + 1;
      b

let slab t = t.slab
let rng t = t.rng
let allocations t = t.allocations
