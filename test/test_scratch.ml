(* The filters' scratch arena: buffers are cached per (slot, length),
   so a warmed-up hot path allocates nothing. *)
open Rfid_prob

let test_reuse () =
  let s = Scratch.create () in
  let b1 = Scratch.float_buf s ~slot:0 64 in
  let b2 = Scratch.float_buf s ~slot:0 64 in
  Alcotest.(check bool) "same slot and length reuses the buffer" true (b1 == b2);
  Alcotest.(check int) "exact length" 64 (Array.length b1);
  let b3 = Scratch.float_buf s ~slot:1 64 in
  Alcotest.(check bool) "distinct slots never alias" true (not (b3 == b1));
  let i1 = Scratch.int_buf s ~slot:0 16 in
  let i2 = Scratch.int_buf s ~slot:0 16 in
  Alcotest.(check bool) "int buffers reuse" true (i1 == i2);
  (* Warm-up touches each (slot, length) once; afterwards every request
     is served from cache and the allocation counter freezes — the
     arena-level statement of the zero-allocation steady state. *)
  let warm = Scratch.allocations s in
  for _ = 1 to 100 do
    ignore (Scratch.float_buf s ~slot:0 64);
    ignore (Scratch.float_buf s ~slot:1 64);
    ignore (Scratch.int_buf s ~slot:0 16);
    ignore (Scratch.rng s);
    ignore (Scratch.slab s)
  done;
  Alcotest.(check int) "steady state allocates no new buffers" warm (Scratch.allocations s);
  Util.check_raises_invalid "bad slot" (fun () -> ignore (Scratch.float_buf s ~slot:9 4))

let suite = ("scratch", [ Alcotest.test_case "arenas reuse buffers" `Quick test_reuse ])
