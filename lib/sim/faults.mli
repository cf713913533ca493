(** Deterministic, seed-keyed corruption of a simulated observation
    stream, so the robustness layer's behavior under realistic input
    faults is measurable in benches and reproducible in tests.

    The fault taxonomy mirrors what mobile RFID deployments actually
    ship (see DESIGN.md §8): dropped and duplicated epochs, reordered
    records, NaN location fixes, sustained positioning outages, and
    spurious reads of tag ids outside the deployment's universe. *)

type spec = {
  drop_prob : float;  (** probability an epoch's record is dropped *)
  duplicate_prob : float;  (** probability a record is emitted twice *)
  nan_fix_prob : float;  (** probability a location fix becomes NaN *)
  spurious_tag_prob : float;
      (** probability a bogus out-of-universe object tag (id >= 10^6)
          is prepended to a record's readings *)
  reorder_prob : float;
      (** probability two adjacent surviving records swap places *)
  outage : (int * int) option;
      (** [(start, len)]: every fix in epochs [start, start+len)
          becomes NaN — a sustained positioning outage *)
}

val make :
  ?drop_prob:float ->
  ?duplicate_prob:float ->
  ?nan_fix_prob:float ->
  ?spurious_tag_prob:float ->
  ?reorder_prob:float ->
  ?outage:int * int ->
  unit ->
  spec
(** @raise Invalid_argument on a probability outside [0, 1] or a
    negative outage bound. *)

val is_none : spec -> bool

val apply :
  spec -> seed:int -> Rfid_model.Types.observation list -> Rfid_model.Types.observation list
(** Corrupt a stream. Deterministic: the same spec, seed and input
    always produce the same output. The result is generally {e not} a
    clean epoch sequence — that is the point; feed it through
    [Rfid_robust.Ingest]. *)

val pp : Format.formatter -> spec -> unit
