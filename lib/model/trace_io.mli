(** Plain-text serialization of observation streams and ground-truth
    traces, so recorded deployments can be replayed through the engine
    (and simulator output can be inspected or processed with standard
    tools).

    The observation format is line-oriented CSV:

    {v
    # rfid_streams observations v1
    epoch,reported_x,reported_y,reported_z,tags
    0,0.000,-1.000,0.000,obj:3;shelf:0
    1,0.013,-0.897,0.000,
    v}

    Tags are semicolon-separated [obj:<id>] / [shelf:<id>] tokens; an
    empty field means an epoch without readings.

    Readers tolerate CRLF line endings, surrounding whitespace in any
    field, blank lines and [#] comments. They reject negative epochs,
    negative tag ids and non-finite coordinates: a NaN that parses
    "successfully" would otherwise silently poison every particle
    weight downstream. The [_lenient] variants skip malformed lines and
    report them with line numbers instead of raising, so one corrupt
    record cannot abort a replay. *)

val write_observations : out_channel -> Types.observation list -> unit

val observation_of_line : string -> (Types.observation, string) result
(** Parse one data line ([epoch,x,y,z,tags]) under exactly the rules
    above — trimmed fields, non-negative epoch, finite coordinates,
    valid tag tokens. This is the grammar of the stream server's [PUT]
    payload (see PROTOCOL.md), so wire ingest and file replay accept
    byte-for-byte the same records. Header/comment/blank lines are not
    data: they parse as [Error]. *)

val observation_to_line : Types.observation -> string
(** The inverse of {!observation_of_line}, one line without the
    newline — the same formatting {!write_observations} uses per
    record. *)

val read_observations : in_channel -> Types.observation list
(** @raise Failure with a line-numbered message on malformed input. *)

val read_observations_lenient :
  in_channel -> Types.observation list * (int * string) list
(** Like {!read_observations}, but malformed lines are skipped and
    returned as [(line number, message)] diagnostics alongside the
    successfully parsed observations. Never raises on content. *)

val observations_to_string : Types.observation list -> string

val observations_of_string_lenient :
  string -> Types.observation list * (int * string) list

val write_events :
  out_channel -> (Types.epoch * int * Rfid_geom.Vec3.t) list -> unit
(** Write cleaned location events as [epoch,obj,x,y,z] CSV (the
    statistics field is omitted — downstream consumers of the file
    format want point estimates). *)
