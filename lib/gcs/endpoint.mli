open Repro_net

(** An Extended Virtual Synchrony group-communication endpoint.

    One endpoint runs at each node.  Within an installed (regular)
    configuration the minimal member acts as sequencer: senders multicast
    payloads, the sequencer multicasts batched order assignments, and
    members multicast batched cumulative acknowledgements.  A message is
    *safe* once every view member's acknowledgement covers its sequence
    number.

    Delivery guarantees (per EVS, Moser et al. 1994):
    - {b agreed}: messages are delivered in a single total order per
      configuration, gap-free at each member;
    - {b safe}: a safe-service message delivered in a regular
      configuration ([in_regular = true]) has been received by every
      member of that configuration — each of them delivers it (in the
      regular or the following transitional configuration) unless it
      crashes;
    - a view change is announced by a {e transitional configuration}
      (the members of the old regular configuration continuing directly
      into the new one), followed by leftover message delivery, followed
      by the new {e regular configuration}.  Members transitioning
      together deliver the same set of messages (virtual synchrony).

    Membership runs a gather / propose / flush / install protocol:
    suspicion (heartbeat timeout) or discovery (component probe) starts
    an epidemic gather of reachable endpoints; the minimal gathered node
    proposes; members exchange flush inventories and retransmit one
    another's missing ordered messages; when everyone holds the common
    prefix the coordinator installs.  Any timeout or interfering event
    restarts the gather, so cascading network events are tolerated. *)

type service =
  | Agreed  (** total order only *)
  | Safe  (** total order + all-member receipt before regular delivery *)

type view = { id : Conf_id.t; members : Node_id.Set.t }

val pp_view : Format.formatter -> view -> unit

type 'p delivery = {
  sender : Node_id.t;
  payload : 'p;
  conf : Conf_id.t;  (** regular configuration the message was ordered in *)
  seq : int;  (** global sequence number within [conf] *)
  in_regular : bool;
      (** [true]: delivered in the regular configuration with all
          guarantees met; [false]: delivered in a transitional
          configuration *)
}

type 'p event =
  | Deliver of 'p delivery
  | Trans_conf of view
      (** reduced membership: old-configuration members continuing
          directly into the next regular configuration *)
  | Reg_conf of view

type 'p t

type 'p wire
(** The GCS wire protocol message type (opaque); the caller provides the
    ['p wire Network.t] the endpoints of one group share. *)

val create :
  ?on_burst_start:(unit -> unit) ->
  ?on_burst_end:(unit -> unit) ->
  network:'p wire Network.t ->
  params:Params.t ->
  node:Node_id.t ->
  on_event:('p event -> unit) ->
  unit ->
  'p t
(** Creates and registers the endpoint; it stays passive until {!join}.

    [on_burst_start]/[on_burst_end] (default: no-ops) bracket every run
    of consecutive [on_event] calls released together — the messages a
    single ack or order batch makes deliverable, or a view change's
    transitional/leftover/regular sequence — so the layer above can
    group-commit its per-delivery work once per burst. *)

val node : 'p t -> Node_id.t
val params : 'p t -> Params.t

val join : 'p t -> unit
(** Starts participating: gathers whoever is reachable and installs a
    configuration (a singleton one when alone). *)

val send : 'p t -> service:service -> size:int -> 'p -> unit
(** Multicasts a payload of [size] bytes to the current configuration.
    While no configuration is installed the message is queued and sent
    upon the next installation.  Messages still unordered when a view
    change hits may be lost (never delivered anywhere); higher layers
    retransmit from their own stable queues. *)

val current_view : 'p t -> view option
(** The installed regular configuration, if any. *)

val is_installed : 'p t -> bool

val crash : 'p t -> unit
(** Volatile state is lost; the endpoint goes silent. *)

val recover : 'p t -> unit
(** Rejoins with the same identity after a crash. *)

val installed_count : 'p t -> int
(** Number of regular configurations installed (statistics). *)

val acks_sent : 'p t -> int
(** Standalone cumulative [Ack] multicasts sent by this endpoint since
    creation (statistics). *)

val store_stats : 'p t -> (int * int) option
(** [(messages retained, highest evicted sequence)] of the current
    configuration's message store — observability for memory-bound
    checks.  [None] when no configuration is installed. *)
