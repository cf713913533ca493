(** The fire-code query of §II-B: "display of solid merchandise shall
    not exceed 200 pounds per square foot of shelf area."

    {v
    Select Rstream(E2.area, sum(E2.weight))
    From (Select Rstream( *, SquareFtArea(E.(x,y,z)) As area,
                            Weight(E.tag_id) As weight)
          From EventStream E [Now]) E2 [Range 5 seconds]
    Group By E2.area
    Having sum(E2.weight) > 200 pounds
    v}

    The inner query annotates each event with its square-foot cell and
    the object's weight; the outer query sums weights per cell over a
    sliding window and reports cells over the limit. An object
    contributes its most recent location only (re-reports supersede). *)

type cell = int * int
(** Square-foot grid cell (floor x, floor y). *)

type violation = {
  v_epoch : Rfid_model.Types.epoch;
  v_cell : cell;
  v_weight : float;  (** pounds in the cell *)
  v_objects : int list;  (** contributing objects, ascending id *)
}

type t

val create : weight_of:(int -> float) -> t
(** A query over a 5-epoch range window (the paper's 5 seconds) with
    the 200 lb limit; [weight_of] gives an object's weight in pounds by
    id. *)

val run : t -> Rfid_core.Event.t list -> violation list
(** Feed events in epoch order; returns the cells in violation, each
    cell reported at most once per epoch, at the event that first takes
    it over the limit. Successive calls continue the same stream.
    @raise Invalid_argument if an event's epoch is before the last one's. *)

val pp_violation : Format.formatter -> violation -> unit
