open Rfid_model

(* Epochs without a read that end a presence period (the engine's
   scope horizon). *)
let out_of_scope_after = 15

type tag_state = {
  mutable last_read : int;
  mutable sample : Rfid_geom.Vec3.t;
  mutable open_period : bool;
}

let run ~world ~read_range ?heading_of ~seed observations =
  if read_range <= 0. then invalid_arg "Uniform.run: read_range must be positive";
  let rng = Rfid_prob.Rng.create ~seed in
  let tags : (int, tag_state) Hashtbl.t = Hashtbl.create 64 in
  let events = ref [] in
  let close obj st =
    events := Rfid_core.Event.make ~epoch:st.last_read ~obj ~loc:st.sample () :: !events;
    st.open_period <- false
  in
  List.iter
    (fun (obs : Types.observation) ->
      let e = obs.Types.o_epoch in
      List.iter
        (fun tag ->
          match tag with
          | Types.Shelf_tag _ -> ()
          | Types.Object_tag obj ->
              let sample =
                let facing = Option.map (fun f -> f e) heading_of in
                Smurf.sample_in_range world rng ~center:obs.Types.o_reported_loc
                  ~range:read_range ?facing ()
              in
              let st =
                match Hashtbl.find_opt tags obj with
                | Some st -> st
                | None ->
                    let st = { last_read = e; sample; open_period = false } in
                    Hashtbl.replace tags obj st;
                    st
              in
              if st.open_period && e - st.last_read > out_of_scope_after then
                close obj st;
              st.last_read <- e;
              st.sample <- sample;
              st.open_period <- true)
        obs.Types.o_read_tags;
      (* Close periods that timed out this epoch. *)
      Hashtbl.iter
        (fun obj st ->
          if st.open_period && e - st.last_read > out_of_scope_after then
            close obj st)
        tags)
    observations;
  Hashtbl.iter (fun obj st -> if st.open_period then close obj st) tags;
  List.rev !events
