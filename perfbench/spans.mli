(** In-memory tracing of the benchmark's calls into the library.

    A span records one call: its name, start and end on the monotonic
    clock, the span it ran under and the request it served. Counts
    describing the call's work (bytes decoded, sites selected, ...) ride
    on the span, so ratios are taken where the work happened. A disabled
    tracer records nothing and reads no clock. *)

type span = {
  id : int;
  parent : int option;  (** the enclosing span, if any *)
  request : int;  (** request id; 0 outside any request *)
  name : string;
  start_ns : int;
  stop_ns : int;
  counts : (string * int) list;
}

(** [now_ns ()] is the monotonic clock ([CLOCK_MONOTONIC]) in
    nanoseconds, the clock every span and benchmark timer reads. *)
val now_ns : unit -> int

type t

val create : enabled:bool -> t
val enabled : t -> bool

(** [set_request t id] tags the spans opened from now on with [id]. *)
val set_request : t -> int -> unit

(** [with_span t name f] runs [f] inside a span called [name], or called
    [name_of v] when [f] returns [v]; [counts v] is attached to the
    span. A span whose [f] raises is still recorded, under [name]. *)
val with_span :
  t ->
  ?name_of:('a -> string) ->
  ?counts:('a -> (string * int) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** The recorded spans, in start order. *)
val spans : t -> span list

val duration_ns : span -> int

(** [self_ns spans] maps each span id to its self time: its duration
    minus the part of its interval covered by its direct children. *)
val self_ns : span list -> (int, int) Hashtbl.t

(** [to_json spans] is the span dump written at exit: one object per
    span with its self time. *)
val to_json : span list -> E9_obs.Json.t
