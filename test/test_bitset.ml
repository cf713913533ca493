(* Tests for the scratch bitset behind the factored filter's scope
   tracking: behavioral equivalence with a sorted int set under random
   operation traces, plus the word-boundary edges a dense bit
   representation can get wrong (bit 62 of a 63-bit OCaml int in
   particular). *)
module Bitset = Rfid_prob.Bitset
module IS = Set.Make (Int)

let test_basics () =
  let b = Bitset.create () in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty b);
  Alcotest.(check int) "fresh cardinal" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "mem on empty" false (Bitset.mem b 17);
  Bitset.add b 17;
  Bitset.add b 17;
  Alcotest.(check bool) "mem after add" true (Bitset.mem b 17);
  Alcotest.(check int) "add idempotent" 1 (Bitset.cardinal b);
  Alcotest.(check bool) "mem beyond capacity" false (Bitset.mem b 123456)

let test_negative_ids () =
  let b = Bitset.create () in
  Alcotest.(check bool) "mem negative is false" false (Bitset.mem b (-1));
  Util.check_raises_invalid "add negative" (fun () -> Bitset.add b (-1))

(* The elements that land on word boundaries: 62 is the top bit of a
   63-bit OCaml int (so [1 lsl 62] is negative), 63 starts word 1. *)
let test_word_boundaries () =
  let b = Bitset.create () in
  let ids = [ 0; 61; 62; 63; 64; 125; 126; 127; 1000 ] in
  List.iter (Bitset.add b) ids;
  Alcotest.(check int) "cardinal" (List.length ids) (Bitset.cardinal b);
  Alcotest.(check (list int)) "elements ascending" ids (Bitset.elements b);
  let out = Array.make 16 (-1) in
  let n = Bitset.fill_into b out in
  Alcotest.(check (list int)) "fill_into ascending" ids
    (Array.to_list (Array.sub out 0 n));
  List.iter (fun i -> Alcotest.(check bool) "mem" true (Bitset.mem b i)) ids

let test_clear_reuse () =
  let b = Bitset.create () in
  for i = 0 to 200 do
    Bitset.add b (i * 3)
  done;
  Bitset.clear b;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty b);
  Alcotest.(check (list int)) "no stale bits" [] (Bitset.elements b);
  Bitset.add b 5;
  Alcotest.(check (list int)) "usable after clear" [ 5 ] (Bitset.elements b)

let test_union_into () =
  let a = Bitset.create () and b = Bitset.create () in
  List.iter (Bitset.add a) [ 1; 62; 100 ];
  List.iter (Bitset.add b) [ 2; 62; 500 ];
  Bitset.union_into ~into:a b;
  Alcotest.(check (list int)) "union" [ 1; 2; 62; 100; 500 ] (Bitset.elements a);
  Alcotest.(check int) "cardinal tracks overlap" 5 (Bitset.cardinal a);
  Alcotest.(check (list int)) "source untouched" [ 2; 62; 500 ] (Bitset.elements b);
  Bitset.union_into ~into:a b;
  Alcotest.(check int) "idempotent" 5 (Bitset.cardinal a)

(* Random operation traces against [Set.Make (Int)]: after every
   operation the bitset and the model agree on membership, cardinality
   and (periodically) the full ascending element list. This is the
   contract the filter's scope/pending sets rely on when they swap
   [Int_set] for the bitset. *)
let prop_matches_int_set =
  Util.qcheck ~count:100 "random op trace matches Set.Make(Int)" QCheck.small_int
    (fun seed ->
      let rng = Rfid_prob.Rng.create ~seed in
      let b = Bitset.create () in
      let model = ref IS.empty in
      let ok = ref true in
      for step = 1 to 400 do
        let id = Rfid_prob.Rng.int rng 300 in
        (match Rfid_prob.Rng.int rng 100 with
        | r when r < 55 ->
            Bitset.add b id;
            model := IS.add id !model
        | r when r < 97 ->
            if Bitset.mem b id <> IS.mem id !model then ok := false
        | _ ->
            Bitset.clear b;
            model := IS.empty);
        if Bitset.cardinal b <> IS.cardinal !model then ok := false;
        if step mod 50 = 0 && Bitset.elements b <> IS.elements !model then ok := false
      done;
      !ok && Bitset.elements b = IS.elements !model)

let prop_fill_into_matches_elements =
  Util.qcheck ~count:100 "fill_into = elements" QCheck.small_int (fun seed ->
      let rng = Rfid_prob.Rng.create ~seed in
      let b = Bitset.create () in
      for _ = 1 to 80 do
        Bitset.add b (Rfid_prob.Rng.int rng 400)
      done;
      let out = Array.make (Bitset.cardinal b) (-1) in
      let n = Bitset.fill_into b out in
      n = Bitset.cardinal b
      && Array.to_list (Array.sub out 0 n) = Bitset.elements b)

let suite =
  ( "bitset",
    [
      Alcotest.test_case "basics" `Quick test_basics;
      Alcotest.test_case "negative ids" `Quick test_negative_ids;
      Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
      Alcotest.test_case "clear/reuse" `Quick test_clear_reuse;
      Alcotest.test_case "union_into" `Quick test_union_into;
      prop_matches_int_set;
      prop_fill_into_matches_elements;
    ] )
