open Repro_db

(** The ordered action queue (paper's [actionsQueue]).

    Holds the global green prefix (positions 1..green_count) followed by
    the red actions in local delivery order.  Yellow actions live in the
    red region; their ids are tracked by the engine's [yellow] record.
    White actions (green everywhere) are discarded at checkpoints
    ({!discard_below}): positions at or below the {e floor} hold no body
    and no position index.  The green floor in state messages tells
    peers which positions a replica can still retransmit; one that
    needs positions below every peer's floor catches up by snapshot. *)

type t

val create : unit -> t

val green_count : t -> int
val green_line : t -> Action.Id.t option
val nth_green : t -> int -> Action.t
(** 1-based; raises [Invalid_argument] out of range or below the floor. *)

val greens_from : t -> int -> Action.t list
(** [greens_from t n] are the green actions at positions [n+1..count]. *)

val green_floor : t -> int
(** Positions [<= floor] have no stored body (inherited by snapshot or
    discarded as white). *)

val set_join_floor : t -> count:int -> line:Action.Id.t option -> unit
(** Initialise a snapshot-created queue: green prefix of [count] virtual
    actions ending at [line], with no bodies. *)

val discard_below : t -> int -> int
(** [discard_below t n] frees the stored bodies of green positions
    [<= n] (white actions: known green at every server, paper Figure 1)
    and raises the floor accordingly.  Their bodies and position entries
    go; greenness of the discarded ids remains queryable through a
    per-creator discard cut (green prefixes per creator are
    contiguous).  Returns the number of bodies discarded.  No-op when
    [n <= floor]. *)

val append_green : t -> Action.t -> int
(** Appends at the top of the green prefix (removing the action from the
    red region if present) and returns its green position.  Must not be
    called on an action that is already green. *)

val is_green : t -> Action.Id.t -> bool
(** Green here: held above the floor, or discarded as white.  Ids below
    a snapshot floor are not known to the queue (the engine's green
    cuts cover them). *)

val position : t -> Action.Id.t -> int option
(** The green position of an id held above the floor. *)

val add_red : t -> Action.t -> unit
val red_actions : t -> Action.t list
(** Red actions in local order (excludes greens). *)

val red_count : t -> int
val find : t -> Action.Id.t -> Action.t option
(** Any action this queue holds a body for, red or green. *)

val mem : t -> Action.Id.t -> bool
