open Repro_net


(** ComputeKnowledge (paper CodeSegment A.7) plus the retransmission
    planning derived from the same state messages.

    A pure function of the set of state messages, so every member of the
    view computes identical knowledge. *)

type t = {
  k_prim : Types.prim_component;
      (** maximal (prim_index, attempt) among the state messages *)
  k_attempt : int;  (** max attempt index within the updated group *)
  k_yellow : Types.yellow;
      (** valid iff some updated server had valid yellow; the set is the
          intersection of valid yellow sets (order preserved) *)
  k_vulnerable : Types.vulnerable Node_id.Map.t;
      (** every member's vulnerable record after the invalidation steps *)
  k_green_target : int;  (** max green count among members *)
  k_green_plan : (Node_id.t * int * int) list;
      (** chain of green retransmission duties [(source, from_exclusive,
          to_inclusive)] covering positions (min green, max green]: at
          each point the source reaching furthest whose stored bodies go
          low enough (green floor), lowest id among equals.  Where no
          member holds the bodies of some positions, the chain skips
          to the lowest floor above the gap: members whose green count
          lies inside the gap cannot be served (see
          {!green_reachable}). *)
  k_green_from : int;  (** min green count among members *)
  k_red_targets : int Node_id.Map.t;
      (** per creator: max red-cut among members *)
}

val compute :
  members:Node_id.Set.t -> Types.state_msg Node_id.Map.t -> t
(** Requires a state message from every member. *)

val red_duties :
  self:Node_id.t ->
  knowledge:t ->
  states:Types.state_msg Node_id.Map.t ->
  (Node_id.t * int * int) list
(** The per-creator index ranges [(creator, from_exclusive, to_inclusive)]
    that [self] must retransmit as red: for each creator, the member with
    the maximal red cut (lowest id among equals) covers the span from the
    minimal red cut to the maximal. *)

val green_reachable : t -> green_count:int -> bool
(** Whether the green plan can bring a member at [green_count] up to
    the target.  [false] means some position it needs lies below every
    source's floor: the bodies were discarded as white, so the member
    must catch up by snapshot (state transfer) instead. *)

val exchange_finished :
  green_count:int -> red_cut:(Node_id.t -> int) -> t -> bool
(** Whether this server has reached the retransmission targets. *)
