(** Emulator of the real RFID lab deployment of §V-C.

    The paper's rig: two parallel rows of 40 EPC Gen2 tags at 4-inch
    spacing (5 of each row's tags are reference tags with known
    positions), scanned by a ThingMagic reader on an iRobot Create at
    0.1 ft/s with one interrogation per second, locating itself by dead
    reckoning with up to 1 ft of error; the antenna's read region is
    spherical with a wide minor range. The reader's timeout setting
    (250/500/750 ms) controls how long marginal tags get to respond —
    longer timeouts read more (and more marginal) tags, enlarging the
    effective region.

    This module reproduces that rig in software: the same geometry, a
    spherical {!Truth_sensor} parameterized by the timeout, and a
    dead-reckoning location stream whose true position drifts (capped at
    1 ft) while the reported position follows the script. The "imagined
    shelf" of Fig. 6(b) — the prior area algorithms may sample object
    locations from — extends from each tag row away from the aisle by
    0.66 ft (small) or 2.6 ft (large). *)

type shelf_size = Small | Large

type t = {
  world : Rfid_model.World.t;
      (** imagined shelves (5 segments per row, one reference tag each) *)
  object_locs : Rfid_geom.Vec3.t array;  (** true object-tag locations (70 tags) *)
  sensor : Truth_sensor.t;  (** ground-truth read region for this timeout *)
  timeout_ms : int;
  shelf_size : shelf_size;
}

val deployment : ?timeout_ms:int -> ?shelf_size:shelf_size -> unit -> t
(** Build the rig. [timeout_ms] must be one of 250, 500, 750 (default
    500). @raise Invalid_argument otherwise. *)

val scan : t -> seed:int -> Rfid_model.Trace.t
(** One full scan: down one row and back along the other, with dead
    reckoning drift. Deterministic in [seed]. *)

val num_objects : int
(** 70: 80 tags minus 10 reference tags. *)

val heading : Rfid_model.Types.epoch -> float
(** The robot's commanded heading during a scan: 0 (facing row 0) for
    the first pass, pi (facing row 1) for the return — the
    [Known_heading] schedule an application would supply. *)
