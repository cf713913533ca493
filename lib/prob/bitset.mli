(** Dense growable bitsets over non-negative ints.

    The filter hot paths track sets of object ids (the sensing scope,
    the Case-1 read set, the index's pending set) whose members are
    small ints and whose lifetime is one epoch or one flush interval.
    A functional [Set.Make(Int)] allocates O(|set| log |set|) per epoch
    of rebuilding; a bitset with a high-water mark supports the same
    membership / union / ascending-iteration operations with zero
    steady-state allocation — [clear] and the scans cost O(words
    touched since the last clear), not O(capacity).

    Iteration order is ascending, matching [Set.Make(Int)], so code
    ported from [Int_set] keeps its deterministic processing order
    (the golden-trace suite depends on it). Negative ints are never
    members: {!mem} answers [false], {!add} raises. *)

type t

val create : unit -> t
(** Empty set of one backing word; growth is automatic. *)

val mem : t -> int -> bool
(** Membership; [false] for negative or never-added-range ints. *)

val add : t -> int -> unit
(** @raise Invalid_argument on a negative element. *)

val clear : t -> unit
(** Empty the set in O(high-water-mark words). *)

val cardinal : t -> int
(** O(1) — maintained by {!add}/{!remove}/{!union_into}. *)

val is_empty : t -> bool

val union_into : into:t -> t -> unit
(** [union_into ~into src] adds every member of [src] to [into] by
    word-wise OR — the delta update for an accumulating pending set. *)

val iter : t -> (int -> unit) -> unit
(** Visit members in ascending order. *)

val fill_into : t -> int array -> int
(** Write the members in ascending order into a caller-owned buffer of
    length at least {!cardinal}; returns the count. The allocation-free
    path from a scratch bitset to a dense work list. *)

val elements : t -> int list
(** Ascending member list (allocates; for snapshots and tests). *)
