(* The benchmark's simulated workloads.  Each episode builds a fresh
   cluster from its seed, drives it through public calls only
   (Replica.submit / on_response, Harness.Client, Topology, Replica
   crash/recover) and reads the layers' public counters before and
   after the measured window.  Figures in virtual time are a function of
   the seed alone; process-CPU figures (set-up, window) are taken
   around the calls. *)

module Sim = Repro_sim
module Disk = Repro_storage.Disk
module Network = Repro_net.Network
module Topology = Repro_net.Topology
module Params = Repro_gcs.Params
module Action = Repro_db.Action
module Op = Repro_db.Op
module Value = Repro_db.Value
module Replica = Repro_core.Replica
module Engine = Repro_core.Engine
module World = Repro_harness.World
module Client = Repro_harness.Client
module Consistency = Repro_harness.Consistency
module Monitor = Repro_check.Monitor

let limit_ms = 1_000.
let cpu () = Sys.time ()
let now_ms sim = Sim.Time.to_ms (Sim.Engine.now sim)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

type episode = {
  cpu_s : float;  (** process CPU inside the window *)
  window_ms : float;  (** virtual *)
  replies : int;  (** replies received inside the window *)
  acct : Report.accounting;
  check_cpu_s : float;
  live_mb : float;  (** heap the episode retains once the load has drained *)
  violations : string list;
  layer : (string * float) list;  (** full-stack per-layer figures *)
}

(* An episode staged at the end of its set-up: the set-up's CPU time,
   and the measured window still to run.  A run may set up more worlds
   than it measures, to time set-up on more samples. *)
type staged = { setup_s : float; window : unit -> episode }

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

(* Counters read at the window's edges.  A crashed replica's engine is
   replaced on recovery, so its pre-crash engine counters are banked in
   [lost] by the caller. *)
type snap = {
  events : int;
  flushes : int;
  busy_us : int;
  shed : int;
  greens : int;
  chunks : int;
  dupes : int;
  sweeps : int;
  engine : Engine.stats;
}

let zero_stats () =
  {
    Engine.s_exchanges = 0;
    s_installs = 0;
    s_retrans_batches = 0;
    s_actions_resent = 0;
    s_submit_batches = 0;
    s_batched_submissions = 0;
  }

let add_stats (a : Engine.stats) (b : Engine.stats) =
  a.s_exchanges <- a.s_exchanges + b.s_exchanges;
  a.s_installs <- a.s_installs + b.s_installs;
  a.s_retrans_batches <- a.s_retrans_batches + b.s_retrans_batches;
  a.s_actions_resent <- a.s_actions_resent + b.s_actions_resent;
  a.s_submit_batches <- a.s_submit_batches + b.s_submit_batches;
  a.s_batched_submissions <- a.s_batched_submissions + b.s_batched_submissions

let engine_stats replicas =
  let acc = zero_stats () in
  List.iter (fun r -> add_stats acc (Engine.stats (Replica.engine r))) replicas;
  acc

let snap w mon =
  let rs = World.replicas w in
  {
    events = Sim.Engine.events_executed (World.sim w);
    flushes = sum Replica.log_flushes rs;
    busy_us =
      sum
        (fun r ->
          match Replica.cpu_stats r with
          | Some (_, busy) -> Sim.Time.to_us busy
          | None -> 0)
        rs;
    shed = sum Replica.shed rs;
    greens = sum Replica.greens_applied rs;
    chunks = sum Replica.transfer_chunks_sent rs;
    dupes = sum Replica.dupes_suppressed rs;
    sweeps = Monitor.observations mon;
    engine = engine_stats rs;
  }

(* Peaks sampled after every run slice. *)
type peaks = {
  mutable pending : int;
  mutable cpu_queue : int;
  mutable log_entries : int;
}

let sample peaks w =
  let rs = World.replicas w in
  peaks.pending <- max peaks.pending (Sim.Engine.pending (World.sim w));
  List.iter
    (fun r ->
      (match Replica.cpu_stats r with
      | Some (q, _) -> peaks.cpu_queue <- max peaks.cpu_queue q
      | None -> ());
      peaks.log_entries <- max peaks.log_entries (Replica.log_entries r))
    rs

(* Advance the simulation to [until_ms] in [fine_ms] steps, calling
   [tick] after each; every 10 ms of virtual time is one run-slice span. *)
let run_to spans ~parent w ~until_ms ~fine_ms ~tick =
  let sim = World.sim w in
  while now_ms sim < until_ms do
    let chunk_end = Float.min until_ms (now_ms sim +. 10.) in
    Span.wall spans ~parent "sim.run_slice" (fun _ ->
        while now_ms sim < chunk_end do
          let next = Float.min chunk_end (now_ms sim +. fine_ms) in
          Sim.Engine.run ~until:(Sim.Time.of_ms next) sim;
          tick ()
        done)
  done

(* An episode's start, after a full major collection: the clocks set-up
   is measured on, and the live heap before the world exists, so that
   [finish] reports only what the episode added to it. *)
type start = { wall0 : float; cpu0 : float; heap0 : int }

let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

let start () =
  let heap0 = live_words () in
  { wall0 = Unix.gettimeofday (); cpu0 = cpu (); heap0 }

(* Set-up is building the world and letting its membership settle.
   The load's warm-up belongs to the episode's run, not to set-up: a
   short set-up lets a run time hundreds of them, so that the fastest
   falls in a quiet moment of the machine.  It is timed in process CPU,
   which other tenants of the machine disturb less than the wall clock;
   the span keeps the wall-clock extent. *)
let setup_done spans ~parent st =
  ignore
    (Span.record spans ~parent ~clock:Span.Wall ~start:st.wall0
       ~stop:(Unix.gettimeofday ()) "setup");
  cpu () -. st.cpu0

(* The measured window: [body] advances the simulation through it from
   its start time.  Returns the window's virtual edges, the counters at
   both edges and the process CPU the window took. *)
type window = { w0 : float; w1 : float; s0 : snap; s1 : snap; cpu_s : float }

let measure w mon body =
  let sim = World.sim w in
  let w0 = now_ms sim in
  let s0 = snap w mon in
  let c0 = cpu () in
  body w0;
  let cpu_s = cpu () -. c0 in
  { w0; w1 = now_ms sim; s0; s1 = snap w mon; cpu_s }

let greens_equal w =
  match World.replicas w with
  | [] -> true
  | r :: rest ->
    let g = Engine.green_count (Replica.engine r) in
    List.for_all (fun r -> Engine.green_count (Replica.engine r) = g) rest

(* Per-node view-change durations from the monitor's audit trace: from
   leaving the regular primary state until the next return to it. *)
let view_changes mon ~from ~until =
  let left = Hashtbl.create 8 in
  List.filter_map
    (fun (e : Sim.Trace.entry) ->
      let at = Sim.Time.to_ms e.at in
      if at < from || at > until then None
      else if e.detail = "RegPrim" then (
        match Hashtbl.find_opt left e.node with
        | Some t0 ->
          Hashtbl.remove left e.node;
          Some (e.node, t0, at)
        | None -> None)
      else begin
        if not (Hashtbl.mem left e.node) then Hashtbl.replace left e.node at;
        None
      end)
    (Sim.Trace.find_all (Monitor.trace mon) ~tag:"state")

(* The correctness gate of an episode: the monitor's final sweep, the
   consistency catalogue (total order, FIFO, single primary,
   convergence) and any workload-specific check. *)
let gate mon w ~extra =
  let once () =
    let c0 = cpu () in
    Monitor.check_now mon;
    let monitor =
      List.map
        (fun v -> Format.asprintf "%a" Repro_check.Snapshot.pp_violation v)
        (Monitor.violations mon)
    in
    let catalogue =
      List.map
        (fun v -> Format.asprintf "%a" Consistency.pp_violation v)
        (Consistency.check_all ~converged:true (World.replicas w) @ extra ())
    in
    (monitor @ catalogue, cpu () -. c0)
  in
  (* The checks only read state: repeat them and keep the fastest. *)
  let runs = List.init 3 (fun _ -> once ()) in
  (fst (List.hd runs), List.fold_left (fun m (_, t) -> Float.min m t) infinity runs)

(* Traced runs also time single monitor sweeps at quiescence. *)
let sweep_cpu_ms spans ~parent mon =
  let times =
    List.init 10 (fun _ ->
        Span.wall spans ~parent "check.sweep" (fun _ ->
            let c0 = cpu () in
            Monitor.check_now mon;
            (cpu () -. c0) *. 1e3))
  in
  Report.median times

(* The requests of an episode and their reply times.  A recording span
   set gets one virtual-time span per request, keyed by its id. *)
type book = {
  sim : Sim.Engine.t;
  spans : Span.t;
  parent : int;
  mutable requests : Report.request list;
  mutable replies : float list;
  mutable next_id : int;
  mutable pending : int;
}

let book sim spans ~parent =
  { sim; spans; parent; requests = []; replies = []; next_id = 0; pending = 0 }

let issue b =
  let r = { Report.issued_ms = now_ms b.sim; outcome = Report.Pending } in
  b.requests <- r :: b.requests;
  b.next_id <- b.next_id + 1;
  b.pending <- b.pending + 1;
  (r, b.next_id)

let resolve b (r, id) outcome =
  let at = now_ms b.sim in
  r.Report.outcome <- outcome;
  b.pending <- b.pending - 1;
  (match outcome with
  | Report.Replied _ -> b.replies <- at :: b.replies
  | Report.Pending | Report.Shed | Report.Aborted -> ());
  ignore
    (Span.record b.spans ~parent:b.parent ~key:(Printf.sprintf "req-%d" id)
       ~clock:Span.Virtual ~start:r.Report.issued_ms ~stop:at "request")

let outstanding b = b.pending > 0

let of_response b = function
  | Action.Aborted -> Report.Aborted
  | Action.Busy -> Report.Shed
  | Action.Committed _ | Action.Procedure_output _ -> Report.Replied (now_ms b.sim)

(* Everything an episode measures around its window, given the window's
   edges and the driver-side counters. *)
let finish ~w ~mon ~spans ~parent ~st ~win ~lost ~(peaks : peaks) ~book
    ?submits ~catchup_ms ~client_layer ~extra () =
  let { w0; w1; s0; s1; cpu_s } = win in
  let acct = Report.account ~limit_ms ~from:w0 ~until:w1 book.requests in
  (* Submissions in the window, retries included; requests when no
     request is ever retried. *)
  let submits = Option.value submits ~default:acct.attempted in
  let replies =
    List.length (List.filter (fun t -> t >= w0 && t <= w1) book.replies)
  in
  let per_op x = if replies = 0 then 0. else float_of_int x /. float_of_int replies in
  let unavail_ms = Report.longest_gap ~from:w0 ~until:w1 book.replies in
  (* The book is the benchmark's, not the cluster's: drop it, and leave
     the accounting just made out of the heap figure. *)
  book.requests <- [];
  book.replies <- [];
  let live_mb =
    float_of_int
      ((live_words () - st.heap0 - Obj.reachable_words (Obj.repr acct))
      * (Sys.word_size / 8))
    /. 1048576.
  in
  let violations, check_cpu_s = gate mon w ~extra in
  let sweep_ms =
    if Span.enabled spans then sweep_cpu_ms spans ~parent mon else 0.
  in
  let e1 = s1.engine and e0 = s0.engine in
  add_stats e1 lost;
  let n = List.length (World.replicas w) in
  let window_ms = w1 -. w0 in
  let events = s1.events - s0.events in
  let vcs = view_changes mon ~from:w0 ~until:w1 in
  List.iter
    (fun (node, t0, t1) ->
      ignore
        (Span.record spans ~parent ~key:(Printf.sprintf "n%d" node)
           ~clock:Span.Virtual ~start:t0 ~stop:t1 "core.view_change"))
    vcs;
  let batches = e1.s_submit_batches - e0.s_submit_batches in
  let layer =
    [
      ("client.unavail_ms", unavail_ms);
      ("core.catchup_ms", catchup_ms);
      ("sim.events_per_op", per_op events);
      ( "sim.cpu_ns_per_event",
        if events = 0 then 0. else cpu_s *. 1e9 /. float_of_int events );
      ("sim.pending_peak", float_of_int peaks.pending);
      ("storage.flushes_per_op", per_op (s1.flushes - s0.flushes));
      ("storage.log_entries_peak", float_of_int peaks.log_entries);
      ( "core.mean_batch",
        if batches = 0 then 1.
        else
          float_of_int (e1.s_batched_submissions - e0.s_batched_submissions)
          /. float_of_int batches );
      ( "core.cpu_busy_frac",
        float_of_int (s1.busy_us - s0.busy_us)
        /. (window_ms *. 1e3 *. float_of_int n) );
      ("core.cpu_queue_peak", float_of_int peaks.cpu_queue);
      ( "core.shed_ratio",
        if submits = 0 then 0.
        else float_of_int (s1.shed - s0.shed) /. float_of_int submits );
      ("core.exchanges", float_of_int (e1.s_exchanges - e0.s_exchanges));
      ("core.installs", float_of_int (e1.s_installs - e0.s_installs));
      ( "core.view_change_ms",
        Report.median (List.map (fun (_, t0, t1) -> t1 -. t0) vcs)
        |> fun m -> if Float.is_nan m then 0. else m );
      ( "core.actions_resent",
        float_of_int (e1.s_actions_resent - e0.s_actions_resent) );
      ("core.transfer_chunks", float_of_int (s1.chunks - s0.chunks));
      ("core.dupes_suppressed", float_of_int (s1.dupes - s0.dupes));
      ("db.applies_per_op", per_op (s1.greens - s0.greens));
      ( "client.failed_ratio",
        if acct.attempted = 0 then 0.
        else float_of_int acct.failed /. float_of_int acct.attempted );
      ("check.sweeps", float_of_int (s1.sweeps - s0.sweeps));
      ("check.cpu_ms_per_sweep", sweep_ms);
    ]
    @ client_layer ~per_op
  in
  {
    cpu_s;
    window_ms;
    replies;
    acct;
    check_cpu_s;
    live_mb;
    violations;
    layer;
  }

(* After the load stops: how long until every request is answered and
   every replica holds the same green count. *)
let drain w b ~cap_ms =
  let sim = World.sim w in
  let t0 = now_ms sim in
  let settled () = (not (outstanding b)) && greens_equal w in
  while now_ms sim < t0 +. cap_ms && not (settled ()) do
    Sim.Engine.run ~until:(Sim.Time.of_ms (now_ms sim +. 0.05)) sim
  done;
  now_ms sim -. t0

(* ------------------------------------------------------------------ *)
(* fig5b_delayed: the paper's Fig. 5(b) knee                            *)

(* 14 closed-loop clients, one per replica, each sending a 200-byte
   no-op update after a seeded 0-100 us turnaround.  Without the
   turnaround the loop phase-locks onto the GCS ack timer and every
   reply takes the same virtual time whatever the seed. *)
let fig5b ~seed ~spans ~parent =
  let st = start () in
  let n = 14 in
  let w =
    World.make ~net_config:Network.lan_gigabit ~params:Params.default
      ~disk_config:Disk.default_delayed ~attach_cpu:true ~seed ~n ()
  in
  let sim = World.sim w in
  let mon = World.attach_monitor w in
  let rng = Sim.Rng.of_int (seed + 1) in
  let b = book sim spans ~parent in
  let running = ref true in
  let replicas = Array.of_list (World.replicas w) in
  let rec client i =
    if !running then begin
      let req = issue b in
      Replica.submit replicas.(i mod n) ~size:200 (Action.Update [])
        ~on_response:(fun resp ->
          resolve b req (of_response b resp);
          ignore
            (Sim.Engine.schedule sim
               ~delay:(Sim.Time.of_us (Sim.Rng.int rng 100))
               (fun () -> client i)))
    end
  in
  let peaks = { pending = 0; cpu_queue = 0; log_entries = 0 } in
  let tick () = sample peaks w in
  World.run w ~ms:2_000.;
  let setup_s = setup_done spans ~parent st in
  { setup_s;
    window =
      (fun () ->
        for i = 0 to n - 1 do
          client i
        done;
        World.run w ~ms:1_000.;
        let win =
          measure w mon (fun w0 ->
              run_to spans ~parent w ~until_ms:(w0 +. 2_000.) ~fine_ms:10. ~tick)
        in
        running := false;
        let catchup_ms = drain w b ~cap_ms:5_000. in
        finish ~w ~mon ~spans ~parent ~st ~win ~lost:(zero_stats ()) ~peaks
          ~book:b ~catchup_ms
          ~client_layer:(fun ~per_op:_ ->
            [
              ("client.retries_per_op", 0.);
              ("client.failovers", 0.);
              ("client.timeouts", 0.);
              ("client.busy_retries_per_op", 0.);
              ("client.commutative_lost_acks", 0.);
            ])
          ~extra:(fun () -> []) ()) }

(* ------------------------------------------------------------------ *)
(* overload_2x: fixed open-loop overload                                *)

(* Poisson arrivals at a fixed 8,000/s — twice the saturation measured
   on this profile — spread round-robin over 5 replicas with admission
   control.  A Busy answer is retried up to 3 times after a jittered,
   doubling backoff from 10 ms, then counted as shed. *)
let overload ~seed ~spans ~parent =
  let st = start () in
  let n = 5 in
  let rate = 8_000. in
  let w =
    World.make ~net_config:Network.lan_100mbit ~params:Params.default
      ~attach_cpu:true
      ~admission:{ Replica.adm_max_inflight = 8; adm_max_red = 64 }
      ~seed ~n ()
  in
  let sim = World.sim w in
  let mon = World.attach_monitor w in
  let rng = Sim.Rng.of_int (seed + 1) in
  let b = book sim spans ~parent in
  let running = ref true in
  let replicas = Array.of_list (World.replicas w) in
  let submits = ref 0 and busy_retries = ref 0 in
  let arrivals = ref 0 in
  let send req replica =
    let key = Printf.sprintf "k%d" (Sim.Rng.int rng 64) in
    let v = Sim.Rng.int rng 1000 in
    let rec go attempt =
      incr submits;
      Replica.submit replica ~size:200
        (Action.Update [ Op.Set (key, Value.Int v) ])
        ~on_response:(fun resp ->
          match resp with
          | Action.Busy when attempt < 3 ->
            incr busy_retries;
            let cap = 10. *. (2. ** float_of_int attempt) in
            let delay = Sim.Time.of_ms (Float.max 0.001 (Sim.Rng.float rng cap)) in
            ignore (Sim.Engine.schedule sim ~delay (fun () -> go (attempt + 1)))
          | resp -> resolve b req (of_response b resp))
    in
    go 0
  in
  let rec arrival () =
    let gap = Sim.Rng.exponential rng ~mean:(1. /. rate) in
    ignore
      (Sim.Engine.schedule sim ~delay:(Sim.Time.of_sec gap) (fun () ->
           if !running then begin
             incr arrivals;
             send (issue b) replicas.(!arrivals mod n);
             arrival ()
           end))
  in
  let peaks = { pending = 0; cpu_queue = 0; log_entries = 0 } in
  let tick () = sample peaks w in
  World.run w ~ms:500.;
  let setup_s = setup_done spans ~parent st in
  { setup_s;
    window =
      (fun () ->
        arrival ();
        World.run w ~ms:500.;
        let submits0 = !submits and busy0 = !busy_retries in
        let win =
          measure w mon (fun w0 ->
              run_to spans ~parent w ~until_ms:(w0 +. 2_000.) ~fine_ms:10. ~tick)
        in
        let submits_in = !submits - submits0 and busy_in = !busy_retries - busy0 in
        running := false;
        let catchup_ms = drain w b ~cap_ms:5_000. in
        finish ~w ~mon ~spans ~parent ~st ~win ~lost:(zero_stats ()) ~peaks
          ~book:b ~submits:submits_in ~catchup_ms
          ~client_layer:(fun ~per_op ->
            [
              ("client.retries_per_op", per_op busy_in);
              ("client.failovers", 0.);
              ("client.timeouts", 0.);
              ("client.busy_retries_per_op", per_op busy_in);
              ("client.commutative_lost_acks", 0.);
            ])
          ~extra:(fun () -> []) ()) }

(* ------------------------------------------------------------------ *)
(* churn_forced: partition, heal, crash, recover under client load      *)

let churn_nodes = 7
let victim = 2

(* 14 failover sessions over 7 replicas with forced 1 ms disks.  Each
   session runs strict writes, commutative increments and ordered reads
   over 64 keys, with the same seeded 0-100 us turnaround as fig5b
   between requests.  Every write also adds 1 to a ledger key of the session
   for its semantics: "cc<id>" for strict writes, gated by the
   exactly-once check, and "cx<id>" for commutative ones, gated against
   double application.  A commutative write is answered at its red
   application, before it is green, so the session moves on early and
   the replicas' [seq <= highest] duplicate test can drop it; the "cx"
   ledger counts those lost acknowledgements
   (client.commutative_lost_acks) instead of gating on them.  The fault
   schedule is fixed: majority/minority partition, heal, crash of one
   replica, recovery from its own log. *)
let churn ~seed ~spans ~parent =
  let st = start () in
  let w =
    World.make ~net_config:Network.lan_gigabit ~params:Params.default
      ~attach_cpu:true ~seed ~n:churn_nodes ()
  in
  let sim = World.sim w in
  let mon = World.attach_monitor w in
  let rng = Sim.Rng.of_int (seed + 1) in
  let b = book sim spans ~parent in
  let running = ref true in
  let sessions =
    List.init 14 (fun i ->
        Client.create ~sim ~id:(i + 1) ~replicas:(fun () -> World.replicas w) ())
  in
  let issued = Hashtbl.create 16 and acked = Hashtbl.create 16 in
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let ledger_key ~commutative c =
    Printf.sprintf "%s%d" (if commutative then "cx" else "cc") (Client.id c)
  in
  let rec pump c =
    if !running then begin
      let req = issue b in
      let key = Sim.Rng.int rng 64 in
      let next resp =
        resolve b req resp;
        ignore
          (Sim.Engine.schedule sim
             ~delay:(Sim.Time.of_us (Sim.Rng.int rng 100))
             (fun () -> pump c))
      in
      match Sim.Rng.int rng 4 with
      | 0 ->
        (* Client.exec rather than Client.read, which hides an abort. *)
        Client.exec c (Action.Query [ Printf.sprintf "k%d" key ]) ~k:(fun resp ->
            next (of_response b resp))
      | roll ->
        let commutative = roll = 1 in
        let ledger = ledger_key ~commutative c in
        let ops =
          if commutative then
            [ Op.Add (Printf.sprintf "c%d" key, 1); Op.Add (ledger, 1) ]
          else
            [
              Op.Set (Printf.sprintf "k%d" key, Value.Int (Sim.Rng.int rng 1000));
              Op.Add (ledger, 1);
            ]
        in
        bump issued ledger;
        Client.exec c
          ~semantics:(if commutative then Action.Commutative else Action.Strict)
          (Action.Update ops)
          ~k:(fun resp ->
            (match resp with
            | Action.Aborted | Action.Busy -> ()
            | Action.Committed _ | Action.Procedure_output _ ->
              bump acked ledger);
            next (of_response b resp))
    end
  in
  let peaks = { pending = 0; cpu_queue = 0; log_entries = 0 } in
  let lost = zero_stats () in
  let recovered_at = ref None and caught_up_at = ref None in
  let victim_r = World.replica w victim in
  let tick () =
    sample peaks w;
    match (!recovered_at, !caught_up_at) with
    | Some _, None ->
      let peak =
        List.fold_left
          (fun acc r ->
            if Replica.node r = victim || not (Replica.is_up r) then acc
            else max acc (Engine.green_count (Replica.engine r)))
          0 (World.replicas w)
      in
      if Replica.is_ready victim_r
         && Engine.green_count (Replica.engine victim_r) >= peak
      then caught_up_at := Some (now_ms sim)
    | _ -> ()
  in
  World.run w ~ms:1_000.;
  let setup_s = setup_done spans ~parent st in
  { setup_s;
    window =
      (fun () ->
        List.iter pump sessions;
        World.run w ~ms:1_000.;
        let win =
          measure w mon (fun w0 ->
              let phase until_ms =
                run_to spans ~parent w ~until_ms:(w0 +. until_ms) ~fine_ms:0.1 ~tick
              in
              phase 300.;
              Topology.partition (World.topology w) [ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ] ];
              phase 900.;
              Topology.merge_all (World.topology w);
              phase 1_500.;
              add_stats lost (Engine.stats (Replica.engine victim_r));
              Replica.crash victim_r;
              phase 2_100.;
              Replica.recover victim_r;
              recovered_at := Some (now_ms sim);
              phase 3_000.)
        in
        running := false;
        (* Settle: every session's last request answered, everyone caught up. *)
        let settle_end = win.w1 +. 20_000. in
        while
          now_ms sim < settle_end
          && (!caught_up_at = None
             || outstanding b
             || not (greens_equal w && List.for_all Replica.is_ready (World.replicas w)))
        do
          run_to spans ~parent w ~until_ms:(now_ms sim +. 10.) ~fine_ms:0.1 ~tick
        done;
        let catchup_ms =
          match (!recovered_at, !caught_up_at) with
          | Some t0, Some t1 -> t1 -. t0
          | _ -> settle_end -. win.w1
        in
        let ledgers ~commutative =
          List.map
            (fun c ->
              let l_key = ledger_key ~commutative c in
              let get tbl = Option.value ~default:0 (Hashtbl.find_opt tbl l_key) in
              {
                Consistency.l_client = Client.id c;
                l_key;
                l_issued = get issued;
                l_acked = get acked;
              })
            sessions
        in
        (* Acknowledged commutative increments missing from the converged
           state (the gate has checked that every replica holds the same). *)
        let lost_acks () =
          let db = Replica.database (World.replica w 0) in
          List.fold_left
            (fun acc (l : Consistency.ledger) ->
              let held =
                match Repro_db.Database.get db l.l_key with
                | Some (Value.Int v) -> v
                | Some (Value.Text _) | None -> 0
              in
              acc + max 0 (l.l_acked - held))
            0 (ledgers ~commutative:true)
        in
        let stuck =
          if !caught_up_at = None then [ "liveness: the recovered replica never caught up" ]
          else []
        in
        let e =
          finish ~w ~mon ~spans ~parent ~st ~win ~lost ~peaks
            ~book:b ~catchup_ms
            ~client_layer:(fun ~per_op ->
              [
                ("client.retries_per_op", per_op (sum Client.retries sessions));
                ("client.failovers", float_of_int (sum Client.failovers sessions));
                ("client.timeouts", float_of_int (sum Client.timeouts sessions));
                ("client.busy_retries_per_op", per_op (sum Client.busy_responses sessions));
                ("client.commutative_lost_acks", float_of_int (lost_acks ()));
              ])
            ~extra:(fun () ->
              (* Strict ledgers in full; commutative ones on the double-apply
                 side only, their lost acknowledgements being counted above. *)
              Consistency.check_exactly_once
                ~ledgers:
                  (ledgers ~commutative:false
                  @ List.map
                      (fun (l : Consistency.ledger) -> { l with l_acked = 0 })
                      (ledgers ~commutative:true))
                (World.replicas w))
            ()
        in
        List.iter Client.stop sessions;
        { e with violations = e.violations @ stuck }) }

(* ------------------------------------------------------------------ *)
(* The bounded model check                                              *)

type mcheck = {
  m_cpu_s : float;
  m_ok : bool;
  m_layer : (string * float) list;
}

(* The exhaustive check churn_forced runs once per run: every
   interleaving of 10 deliveries, 2 faults and 1 client submission on 3
   nodes must come out clean and complete. *)
let mcheck spans ~parent =
  let module E = Repro_mcheck.Explore in
  let c0 = cpu () in
  let o =
    Span.wall spans ~parent "mcheck.explore" (fun _ ->
        E.run ~nodes:3 ~depth:10 ~faults:2 ~submits:1 ())
  in
  let m_cpu_s = cpu () -. c0 in
  let st = o.E.stats in
  let states = float_of_int st.E.st_states in
  let ratio a = if states = 0. then 0. else float_of_int a /. states in
  {
    m_cpu_s;
    m_ok = o.E.found = None && o.E.complete;
    m_layer =
      [
        ("mcheck.states", states);
        ("mcheck.distinct_ratio", ratio st.E.st_distinct);
        ("mcheck.cache_hit_ratio", ratio st.E.st_cache_hits);
        ("mcheck.reduction_factor", E.reduction_factor st);
        ("mcheck.states_per_cpu_s", if m_cpu_s > 0. then states /. m_cpu_s else 0.);
      ];
  }
