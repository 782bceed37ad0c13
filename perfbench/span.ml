(* In-memory span recorder for the traced run.  Spans are recorded from
   the benchmark's own code around calls into each layer; nothing in the
   program itself is instrumented.  A disabled recorder records nothing,
   so the timed runs pay only the [enabled] test. *)

type clock = Wall | Virtual  (** wall-clock seconds / virtual ms *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  key : string;  (** shared by the spans of one request, or "" *)
  clock : clock;
  start : float;
  stop : float;
}

type t = { enabled : bool; mutable next : int; mutable spans : span list }

let create ~enabled = { enabled; next = 1; spans = [] }
let enabled t = t.enabled

let record t ?(parent = 0) ?(key = "") ~clock ~start ~stop name =
  if not t.enabled then 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent; name; key; clock; start; stop } :: t.spans;
    id
  end

(* Times [f] on the wall clock as a span named [name]; [f] receives the
   new span's id so it can parent spans of its own. *)
let wall t ?parent ?key name f =
  if not t.enabled then f 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start = Unix.gettimeofday () in
    let result = f id in
    let stop = Unix.gettimeofday () in
    t.spans <-
      { id; parent = Option.value parent ~default:0; name;
        key = Option.value key ~default:""; clock = Wall; start; stop }
      :: t.spans;
    result
  end

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.spans
let count t = List.length t.spans

let to_json s =
  Printf.sprintf
    "{\"id\": %d, \"parent\": %d, \"name\": %s, \"key\": %s, \"clock\": %s, \
     \"start\": %s, \"stop\": %s}"
    s.id s.parent (Report.json_string s.name) (Report.json_string s.key)
    (match s.clock with Wall -> "\"wall_s\"" | Virtual -> "\"virtual_ms\"")
    (Printf.sprintf "%.17g" s.start)
    (Printf.sprintf "%.17g" s.stop)

(* One span per line, in id order. *)
let write t path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json s ^ "\n")) (spans t);
  close_out oc
