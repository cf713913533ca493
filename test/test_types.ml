open Rfid_model

let test_tag_basics () =
  Alcotest.(check string) "to_string" "obj:7" (Types.tag_to_string (Types.Object_tag 7));
  Alcotest.(check string) "to_string shelf" "shelf:2"
    (Types.tag_to_string (Types.Shelf_tag 2))

let suite = ("types", [ Alcotest.test_case "tag basics" `Quick test_tag_basics ])
