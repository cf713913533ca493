open Rfid_model

let test_tag_basics () =
  Alcotest.(check bool) "kind distinguishes" false
    (Types.Tag_set.mem (Types.Shelf_tag 3) (Types.Tag_set.singleton (Types.Object_tag 3)));
  Alcotest.(check (list string)) "order: objects before shelves" [ "obj:99"; "shelf:0" ]
    (List.map Types.tag_to_string
       (Types.Tag_set.elements
          (Types.Tag_set.of_list [ Types.Shelf_tag 0; Types.Object_tag 99 ])));
  Alcotest.(check string) "to_string" "obj:7" (Types.tag_to_string (Types.Object_tag 7));
  Alcotest.(check string) "to_string shelf" "shelf:2"
    (Types.tag_to_string (Types.Shelf_tag 2))

let test_tag_collections () =
  let s =
    Types.Tag_set.of_list [ Types.Object_tag 1; Types.Object_tag 1; Types.Shelf_tag 1 ]
  in
  Alcotest.(check int) "set dedupes" 2 (Types.Tag_set.cardinal s);
  let m = Types.Tag_map.singleton (Types.Object_tag 5) "x" in
  Alcotest.(check (option string)) "map lookup" (Some "x")
    (Types.Tag_map.find_opt (Types.Object_tag 5) m)

let suite =
  ( "types",
    [
      Alcotest.test_case "tag basics" `Quick test_tag_basics;
      Alcotest.test_case "tag collections" `Quick test_tag_collections;
    ] )
