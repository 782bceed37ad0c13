(* Pure accounting and output for the benchmark: the percentile rule,
   request outcome accounting, metric names and the result line.  No
   simulator types appear here, so the rules are unit-tested on plain
   numbers (test_perfbench.ml). *)

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)

let is_name_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_name_char c || c = '/' || c = '%')
       s

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int option;  (** sample count behind a timing *)
  note : string;  (** e.g. the percentile actually reported *)
}

let metric ?samples ?(note = "") name unit_ value =
  { name; unit_; value; samples; note }

(* ------------------------------------------------------------------ *)
(* The metrics, in output order, with their units.  BENCHMARK.json lists
   the same names; run.py checks that every result line agrees.  *)
let end_to_end =
  [
    ("setup_s", "s"); ("goodput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("live_heap_mb", "MB");
  ]

let per_layer =
  [
    ("sim.cpu_us_per_op", "us"); ("sim.events_per_op", "count");
    ("sim.cpu_ns_per_event", "ns");
    ("sim.pending_peak", "count");
    ("net.msgs_per_op", "count"); ("net.bytes_per_op", "B");
    ("net.dropped_ratio", "ratio");
    ("gcs.safe_p50_ms", "ms"); ("gcs.safe_p99_ms", "ms");
    ("gcs.cpu_us_per_delivery", "us"); ("gcs.views_installed", "count");
    ("storage.flushes_per_op", "count"); ("storage.force_p50_ms", "ms");
    ("storage.log_entries_peak", "count");
    ("core.mean_batch", "count"); ("core.cpu_busy_frac", "ratio");
    ("core.cpu_queue_peak", "count"); ("core.shed_ratio", "ratio");
    ("core.exchanges", "count"); ("core.installs", "count");
    ("core.view_change_ms", "ms"); ("core.catchup_ms", "ms"); ("core.actions_resent", "count");
    ("core.transfer_chunks", "count"); ("core.dupes_suppressed", "count");
    ("core.knowledge_cpu_us", "us");
    ("db.applies_per_op", "count"); ("db.cpu_ns_per_apply", "ns");
    ("client.retries_per_op", "count"); ("client.failovers", "count");
    ("client.timeouts", "count"); ("client.busy_retries_per_op", "count");
    ("client.failed_ratio", "ratio"); ("client.unavail_ms", "ms"); ("client.commutative_lost_acks", "count");
    ("check.cpu_s", "s"); ("check.sweeps", "count");
    ("check.cpu_ms_per_sweep", "ms");
    ("mcheck.states", "count"); ("mcheck.distinct_ratio", "ratio");
    ("mcheck.cache_hit_ratio", "ratio"); ("mcheck.reduction_factor", "ratio");
    ("mcheck.states_per_cpu_s", "1/s");
    ("trace.overhead_cpu_us_per_op", "us"); ("trace.spans", "count");
  ]

(* Per-layer defect counts, summed over a run's episodes rather than
   taken as their median. *)
let totals = [ "client.commutative_lost_acks" ]

(* Figures timed on a clock (process CPU); every other figure is a
   function of the seed alone and repeats exactly.  The result line marks
   them, so run.py reads the list from here. *)
let clocked =
  [
    "setup_s"; "sim.cpu_us_per_op"; "sim.cpu_ns_per_event"; "gcs.cpu_us_per_delivery";
    "core.knowledge_cpu_us"; "db.cpu_ns_per_apply"; "check.cpu_s";
    "check.cpu_ms_per_sweep"; "mcheck.states_per_cpu_s";
    "trace.overhead_cpu_us_per_op";
  ]

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)

type percentile = { p_value : float; p_rank : float; p_samples : int }

(* Nearest-rank percentile [p] of [sorted], capped at the highest rank
   that still leaves at least ten samples beyond it: a tail figure is
   only reported where ten observations back it.  [None] when there are
   fewer than eleven samples (no rank qualifies). *)
let percentile sorted p =
  let n = Array.length sorted in
  let cap = n - 11 in
  if cap < 0 then None
  else
    let want = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    let idx = max 0 (min want cap) in
    Some
      {
        p_value = sorted.(idx);
        p_rank = 100. *. float_of_int (idx + 1) /. float_of_int n;
        p_samples = n;
      }

(* The mean of the slowest [share] of [sorted], over at least ten
   samples: (mean, samples averaged).  A single high percentile of a
   simulated run can sit on a timer value or flip between two modes of
   the distribution from seed to seed; the tail's mean moves with every
   sample in it.  [None] with fewer than ten samples. *)
let tail_mean sorted ~share =
  let n = Array.length sorted in
  let k = max 10 (int_of_float (Float.ceil (share *. float_of_int n))) in
  if n < k then None
  else begin
    let sum = ref 0. in
    for i = n - k to n - 1 do
      sum := !sum +. sorted.(i)
    done;
    Some (!sum /. float_of_int k, k)
  end

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* CPU-time figures of one run are summarised by their minimum: the
   work is the same in every episode, and other tenants of the machine
   only ever add CPU time to it. *)
let fastest l = List.fold_left Float.min infinity l

(* ------------------------------------------------------------------ *)
(* Request outcomes                                                    *)

type outcome =
  | Pending  (** never answered *)
  | Replied of float  (** virtual reply time, ms *)
  | Shed  (** refused by admission control after the retry budget *)
  | Aborted

type request = { issued_ms : float; mutable outcome : outcome }

type accounting = {
  attempted : int;
  good : int;  (** answered within the latency limit *)
  failed : int;  (** shed, aborted, unanswered or answered past the limit *)
  latencies : float array;  (** sorted, ms, every answered request *)
}

(* Requests issued inside [from, until) are the ones a window attempts;
   each either succeeds within [limit_ms] or counts as failed — a shed,
   aborted, unanswered or late request misses the limit alike. *)
let account ~limit_ms ~from ~until requests =
  let attempted = ref 0 and good = ref 0 and lats = ref [] in
  List.iter
    (fun r ->
      if r.issued_ms >= from && r.issued_ms < until then begin
        incr attempted;
        match r.outcome with
        | Replied at ->
          let lat = at -. r.issued_ms in
          lats := lat :: !lats;
          if lat <= limit_ms then incr good
        | Pending | Shed | Aborted -> ()
      end)
    requests;
  let latencies = Array.of_list !lats in
  Array.sort Float.compare latencies;
  {
    attempted = !attempted;
    good = !good;
    failed = !attempted - !good;
    latencies;
  }

(* The longest stretch of [from, until] with no reply in it. *)
let longest_gap ~from ~until times =
  let inside = List.filter (fun t -> t >= from && t <= until) times in
  let sorted = List.sort Float.compare inside in
  let gap, last =
    List.fold_left
      (fun (g, prev) t -> (Float.max g (t -. prev), t))
      (0., from) sorted
  in
  Float.max gap (until -. last)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let check_metrics metrics =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun m ->
      let dup = Hashtbl.mem seen m.name in
      Hashtbl.replace seen m.name ();
      if not (valid_name m.name) then Some ("bad metric name " ^ m.name)
      else if not (valid_unit m.unit_) then Some ("bad unit for " ^ m.name)
      else if dup then Some ("duplicate metric " ^ m.name)
      else if not (Float.is_finite m.value) then
        Some ("non-finite value for " ^ m.name)
      else None)
    metrics

let table_line m =
  Printf.sprintf "%-32s %16s %-6s%s%s" m.name (number m.value) m.unit_
    (match m.samples with Some n -> Printf.sprintf "  n=%d" n | None -> "")
    (if m.note = "" then "" else "  " ^ m.note)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The result line, metrics in the order given.  [~mark_clock] adds
   ["clock": true] to the figures of [clocked]; run.py reads the mark
   and drops it from the line it prints. *)
let result_json ?(mark_clock = false) ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s%s}" (json_string m.name)
          (number m.value) (json_string m.unit_)
          (if mark_clock && List.mem m.name clocked then ", \"clock\": true"
           else ""))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
