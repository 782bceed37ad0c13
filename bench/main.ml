(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7) on the simulated substrate, then runs
   micro-benchmarks of the core building blocks.

   Run with:  dune exec bench/main.exe            (full suite)
              dune exec bench/main.exe -- quick   (shorter sweeps)   *)

module Sim = Repro_sim
module Check = Repro_check
open Repro_harness

let ppf = Format.std_formatter

let quick = Array.exists (String.equal "quick") Sys.argv
let bench6_mode = Array.exists (String.equal "bench6") Sys.argv
let bench9_mode = Array.exists (String.equal "bench9") Sys.argv
let bench10_mode = Array.exists (String.equal "bench10") Sys.argv

let duration = Sim.Time.of_sec (if quick then 2. else 6.)
let clients = if quick then [ 1; 4; 8; 14 ] else [ 1; 2; 4; 6; 8; 10; 12; 14 ]

(* ------------------------------------------------------------------ *)
(* Protocol sanity: run the repcheck invariant monitor over a churn
   scenario before timing anything — numbers from a broken protocol
   would be meaningless.                                                *)

let repcheck_sanity () =
  let w = World.make ~seed:2002 ~n:5 () in
  let mon = World.attach_monitor w in
  World.run w ~ms:1000.;
  for i = 1 to 20 do
    World.submit_update w ~node:(i mod 5) ~key:(Printf.sprintf "s%d" i) i
  done;
  World.run w ~ms:500.;
  Repro_net.Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  World.run w ~ms:1500.;
  Repro_core.Replica.crash (World.replica w 3);
  World.heal_and_settle ~ms:5000. w;
  Check.Monitor.check_now mon;
  Check.Monitor.assert_ok mon;
  Format.fprintf ppf "repcheck: %d sweeps over the sanity scenario, clean@."
    (Check.Monitor.observations mon)

(* ------------------------------------------------------------------ *)
(* Recovery cost: how long a crashed replica takes to get back into the
   group, by log length, checkpoint freshness and the storage verdict
   its write-ahead log recovery returns.  "rec ms" is virtual time from
   [Replica.recover] until the replica is ready and has caught back up
   to its peers' green count; "entries" is the durable log replayed (or
   discarded, for amnesia); "flushes" the physical flushes recovery and
   catch-up cost; "xfer" the state-transfer chunks the peers served —
   amnesia looks fast on the clock precisely because it ships the
   compacted snapshot over the wire instead of replaying locally.      *)

let recovery_table () =
  let module Disk = Repro_storage.Disk in
  let module Replica = Repro_core.Replica in
  let module Action = Repro_db.Action in
  Format.fprintf ppf
    "@.== Recovery cost: log length x checkpoint freshness x verdict ==@.";
  Format.fprintf ppf "%6s %10s %9s %14s %8s %8s %6s %9s@." "log" "checkpoint"
    "fault" "verdict" "entries" "flushes" "xfer" "rec ms";
  let lengths = if quick then [ 60; 240 ] else [ 60; 240; 960 ] in
  let cadences = [ (None, "never"); (Some 50, "every 50") ] in
  let faults =
    [ ("none", `Clean); ("torn", `Torn); ("interior", `Interior);
      ("head", `Head) ]
  in
  List.iter
    (fun len ->
      List.iter
        (fun (cadence, cadence_name) ->
          List.iter
            (fun (fault_name, fault) ->
              let fault_cfg =
                match fault with
                | `Torn ->
                  { Disk.no_faults with torn_tail_on_crash = 1.0 }
                | _ -> Disk.no_faults
              in
              let disk_config =
                {
                  Disk.default_forced with
                  sync_latency = Sim.Time.of_ms 1.;
                  sync_jitter = 0.;
                  faults = fault_cfg;
                }
              in
              let w =
                World.make ~disk_config ~checkpoint_every:cadence ~seed:7
                  ~n:3 ()
              in
              World.run w ~ms:1000.;
              let victim = World.replica w 2 in
              let submitted = ref 0 in
              while !submitted < len do
                for _ = 1 to 20 do
                  incr submitted;
                  World.submit_update w ~node:(!submitted mod 3)
                    ~key:(Printf.sprintf "r%d" (!submitted mod 16))
                    !submitted
                done;
                World.run w ~ms:200.
              done;
              World.run w ~ms:1000.;
              (match fault with
              | `Torn ->
                (* Leave a record in flight so the crash tears it. *)
                Replica.submit victim
                  (Action.Update
                     [ Repro_db.Op.Set ("torn", Repro_db.Value.Int 1) ])
                  ~on_response:(fun _ -> ())
              | _ -> ());
              Replica.crash victim;
              (match fault with
              | `Interior ->
                ignore
                  (Replica.corrupt_log victim
                     ~nth:(Replica.log_entries victim - 1))
              | `Head -> ignore (Replica.corrupt_log victim ~nth:0)
              | `Clean | `Torn -> ());
              let entries = Replica.log_entries victim in
              let flushes0 = Replica.log_flushes victim in
              let chunks () =
                List.fold_left
                  (fun acc r -> acc + Replica.transfer_chunks_sent r)
                  0 (World.replicas w)
              in
              let chunks0 = chunks () in
              let sim = World.sim w in
              let t0 = Sim.Engine.now sim in
              Replica.recover victim;
              let peer = World.replica w 0 in
              let caught_up () =
                Replica.is_ready victim
                && Repro_core.Engine.green_count (Replica.engine victim)
                   >= Repro_core.Engine.green_count (Replica.engine peer)
              in
              let slices = ref 0 in
              while (not (caught_up ())) && !slices < 30_000 do
                incr slices;
                World.run w ~ms:1.
              done;
              let rec_ms =
                Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now sim) t0)
              in
              Format.fprintf ppf "%6d %10s %9s %14s %8d %8d %6d %8.1f%s@." len
                cadence_name fault_name
                (match Replica.last_recovery victim with
                | Some v -> Format.asprintf "%a" Repro_core.Persist.pp_verdict v
                | None -> "-")
                entries
                (Replica.log_flushes victim - flushes0)
                (chunks () - chunks0) rec_ms
                (if caught_up () then "" else "  (never caught up)"))
            faults)
        cadences)
    lengths

(* ------------------------------------------------------------------ *)
(* Model checking: state-space size and throughput at growing bounds —
   the cost curve of the mcheck exhaustive smoke, and how much of the
   naive branching the reductions remove.                              *)

let mcheck_space () =
  Format.fprintf ppf "@.== Model checker: state space and throughput ==@.";
  Format.fprintf ppf
    "%8s %7s %8s %10s %10s %8s %8s %10s@." "depth" "faults" "states"
    "distinct" "branches" "DPORx" "sleep" "states/s";
  let bounds =
    if quick then [ (6, 1); (8, 2) ] else [ (6, 1); (8, 2); (10, 2); (12, 2) ]
  in
  List.iter
    (fun (depth, faults) ->
      let o =
        Repro_mcheck.Explore.run ~nodes:3 ~depth ~faults ~submits:0 ()
      in
      let st = o.Repro_mcheck.Explore.stats in
      Format.fprintf ppf "%8d %7d %8d %10d %10d %7.2fx %8d %10.0f@." depth
        faults st.Repro_mcheck.Explore.st_states
        st.Repro_mcheck.Explore.st_distinct
        st.Repro_mcheck.Explore.st_branches
        (Repro_mcheck.Explore.reduction_factor st)
        st.Repro_mcheck.Explore.st_sleep_skips
        (float_of_int st.Repro_mcheck.Explore.st_states
        /. Float.max 1e-6 st.Repro_mcheck.Explore.st_elapsed);
      if o.Repro_mcheck.Explore.found <> None then
        Format.fprintf ppf "UNEXPECTED violation on the correct engine@.")
    bounds

(* ------------------------------------------------------------------ *)
(* Macro benchmarks: the paper's figures and tables.                   *)

let check_shape name ok =
  Format.fprintf ppf "shape check [%s]: %s@." name
    (if ok then "PASS" else "DIVERGES (see EXPERIMENTS.md)")

let last series = List.nth series (List.length series - 1) |> snd

let figure_5a () =
  let named = Figures.figure_5a ~clients ~duration ppf () in
  let get n = List.assoc n named in
  let engine = get "engine (forced writes)"
  and corel = get "COReL"
  and twopc = get "2PC" in
  check_shape "engine >= COReL >= 2PC at max clients"
    (last engine >= last corel && last corel >= last twopc *. 0.9);
  check_shape "engine beats COReL by >1.5x at max clients"
    (last engine > 1.5 *. last corel)

(* The seed's Figure 5(b) values (EXPERIMENTS.md before the hot-path
   batching overhaul): the old knee this PR's 10x target is measured
   against.  Kept hardcoded so the regression bound survives the very
   change that moved the curve. *)
let seed_5b_delayed_at_14 = 2844.
let seed_5b_forced_at_14 = 1112.

let figure_5b () =
  let named = Figures.figure_5b ~clients ~duration ppf () in
  let delayed = List.assoc "engine (delayed writes)" named
  and forced = List.assoc "engine (forced writes)" named in
  check_shape "delayed writes dominate forced" (last delayed > 2. *. last forced);
  check_shape "delayed knee >= 10x the seed's 2844/s at max clients"
    (last delayed >= 10. *. seed_5b_delayed_at_14);
  check_shape "delayed writes flatten toward a processing cap"
    (let n = List.length delayed in
     n < 3
     ||
     let tput_at i = snd (List.nth delayed i) in
     let clients_at i = float_of_int (fst (List.nth delayed i)) in
     let slope_late =
       (tput_at (n - 1) -. tput_at (n - 2))
       /. (clients_at (n - 1) -. clients_at (n - 2))
     in
     let slope_early = (tput_at 1 -. tput_at 0) /. (clients_at 1 -. clients_at 0) in
     slope_late < slope_early)

let latency_table () =
  let named = Figures.latency_table ppf () in
  let mean_of name =
    let series = List.assoc name named in
    List.fold_left (fun acc (_, v) -> acc +. v) 0. series
    /. float_of_int (List.length series)
  in
  let twopc = mean_of "2PC"
  and corel = mean_of "COReL"
  and engine = mean_of "engine (forced writes)" in
  check_shape "2PC pays roughly one extra forced write"
    (twopc > corel +. 5. && twopc < corel +. 18.);
  check_shape "engine and COReL within 25%"
    (Float.abs (engine -. corel) < 0.25 *. corel)

let wan () =
  let rows = Figures.wan_prediction ppf () in
  match rows with
  | [ (_, twopc_lan, twopc_wan); (_, corel_lan, corel_wan); (_, eng_lan, eng_wan) ]
    ->
    check_shape "2PC pays the most added WAN latency"
      (twopc_wan -. twopc_lan > corel_wan -. corel_lan);
    check_shape "the engine pays the least added WAN latency"
      (eng_wan -. eng_lan <= corel_wan -. corel_lan)
  | _ -> ()

let ablations () =
  let acks = Figures.ablation_ack_batching ~duration ppf () in
  (match (acks, List.rev acks) with
  | (_, tput_small) :: _, (_, tput_big) :: _ ->
    check_shape "ack batching amortises the safe-delivery cost"
      (tput_big > tput_small)
  | _ -> ());
  let (ordered_tput, _), (local_tput, local_lat) =
    Figures.ablation_query_path ~duration ppf ()
  in
  check_shape "local read path beats ordered reads"
    (local_tput > 1.5 *. ordered_tput && local_lat < 10.);
  let (dlv_casc, sta_casc), _chaos = Figures.ablation_quorum_availability ppf () in
  check_shape "dynamic linear voting wins under cascading splits"
    (dlv_casc > sta_casc);
  let timeline = Figures.partition_timeline ppf () in
  let rate_near t =
    List.fold_left
      (fun acc (s, r) -> if Float.abs (s -. t) <= 1. then max acc r else acc)
      0. timeline
  in
  check_shape "majority keeps committing during the partition"
    (rate_near 9. > 0.)

(* ------------------------------------------------------------------ *)
(* `bench6` mode: emit BENCH_6.json on stdout — the before/after
   Figure 5(b) curves around the hot-path batching overhaul, plus a
   submission batch-size sweep.  The JSON is hand-rolled (the tree has
   no JSON dependency and does not want one for a flat report); sweep
   progress goes to stderr.  Regenerate the committed copy with

       dune exec bench/main.exe -- bench6 > BENCH_6.json

   The runtest guard (bench/check_bench6.ml) re-parses the committed
   file and re-asserts the 10x knee, so a retune that moves the curve
   must regenerate the report in the same change.                      *)

let bench6 () =
  let eppf = Format.err_formatter in
  let clients = [ 1; 2; 4; 6; 8; 10; 12; 14 ] in
  let duration = Sim.Time.of_sec 2. in
  (* The seed's curves (EXPERIMENTS.md as of the pre-overhaul tree),
     measured on the same client ladder. *)
  let seed_delayed = [ 500.; 1000.; 1581.; 2202.; 2244.; 2328.; 2564.; 2844. ] in
  let seed_forced = [ 77.; 157.; 316.; 476.; 638.; 798.; 956.; 1112. ] in
  let sweep mode name =
    List.map
      (fun c ->
        let r =
          Experiment.run ~duration ~clients:c (Experiment.Engine_protocol mode)
        in
        Format.fprintf eppf "bench6: %-7s clients=%2d -> %9.1f/s@." name c
          r.Experiment.r_throughput;
        r.Experiment.r_throughput)
      clients
  in
  let after_delayed = sweep Repro_storage.Disk.Delayed "delayed" in
  let after_forced = sweep Repro_storage.Disk.Forced "forced" in
  let batch_delays_us = [ None; Some 0; Some 100; Some 250; Some 500 ] in
  let batch_points =
    List.map
      (fun d ->
        let submit_delay = Option.map Sim.Time.of_us d in
        let r, stats =
          Experiment.run_engine ~servers:5 ~duration ?submit_delay ~clients:40
            Repro_storage.Disk.Delayed
        in
        let batches, batched =
          List.fold_left
            (fun (b, a) s ->
              Repro_core.Engine.
                (b + s.s_submit_batches, a + s.s_batched_submissions))
            (0, 0) stats
        in
        let mean_batch =
          if batches = 0 then 1.
          else float_of_int batched /. float_of_int batches
        in
        Format.fprintf eppf
          "bench6: batch sweep delay=%s -> %9.1f/s mean batch %.2f@."
          (match d with None -> "off" | Some us -> Printf.sprintf "%dus" us)
          r.Experiment.r_throughput mean_batch;
        (d, mean_batch, r))
      batch_delays_us
  in
  let after_delayed_at_14 = List.nth after_delayed (List.length after_delayed - 1) in
  let speedup = after_delayed_at_14 /. seed_5b_delayed_at_14 in
  let floats l =
    "[" ^ String.concat ", " (List.map (Printf.sprintf "%.1f") l) ^ "]"
  in
  let ints l =
    "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"
  in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"BENCH_6\",\n";
  add
    "  \"paper\": \"From Total Order to Database Replication (Amir & Tutu, \
     ICDCS 2002)\",\n";
  add "  \"network\": \"lan_gigabit\",\n";
  add "  \"servers\": 14,\n";
  add "  \"action_bytes\": 200,\n";
  add "  \"window_s\": %.1f,\n" (Sim.Time.to_sec duration);
  add "  \"figure_5b\": {\n";
  add "    \"clients\": %s,\n" (ints clients);
  add "    \"seed\": { \"delayed_per_s\": %s, \"forced_per_s\": %s },\n"
    (floats seed_delayed) (floats seed_forced);
  add "    \"after\": { \"delayed_per_s\": %s, \"forced_per_s\": %s }\n"
    (floats after_delayed) (floats after_forced);
  add "  },\n";
  add "  \"knee\": {\n";
  add "    \"clients\": 14,\n";
  add "    \"seed_delayed_per_s\": %.1f,\n" seed_5b_delayed_at_14;
  add "    \"seed_forced_per_s\": %.1f,\n" seed_5b_forced_at_14;
  add "    \"after_delayed_per_s\": %.1f,\n" after_delayed_at_14;
  add "    \"speedup\": %.2f,\n" speedup;
  add "    \"target_speedup\": 10.0,\n";
  add "    \"pass\": %b\n" (speedup >= 10.);
  add "  },\n";
  add "  \"batch_sweep\": {\n";
  add "    \"servers\": 5,\n";
  add "    \"clients\": 40,\n";
  add "    \"disk\": \"delayed\",\n";
  add "    \"points\": [\n";
  List.iteri
    (fun i (d, mean_batch, r) ->
      add
        "      { \"submit_delay_us\": %s, \"mean_batch\": %.2f, \
         \"throughput_per_s\": %.1f, \"mean_latency_ms\": %.2f }%s\n"
        (match d with None -> "null" | Some us -> string_of_int us)
        mean_batch r.Experiment.r_throughput r.Experiment.r_mean_latency_ms
        (if i = List.length batch_points - 1 then "" else ","))
    batch_points;
  add "    ]\n";
  add "  }\n";
  add "}\n";
  print_string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* `bench9` mode: emit BENCH_9.json on stdout — the overload sweep
   behind the client-reliability tier.  An open-loop Poisson arrival
   process is swept across multiples of the measured saturation rate,
   once with per-replica admission control and once without; goodput
   (completions within a 1 s deadline) is what admission is meant to
   protect.  Regenerate the committed copy with

       dune exec bench/main.exe -- bench9 > BENCH_9.json

   The runtest guard (bench/check_bench9.ml) re-parses the committed
   file and re-asserts the plateau, so a retune that moves the curve
   must regenerate the report in the same change.                      *)

let bench9 () =
  let eppf = Format.err_formatter in
  let servers = 5 in
  let deadline = Sim.Time.of_ms 1_000. in
  let warmup_ms = 500. in
  let window = Sim.Time.of_sec 2. in
  let admission =
    { Repro_core.Replica.adm_max_inflight = 8; adm_max_red = 64 }
  in
  let net = Repro_net.Network.lan_100mbit in
  (* One open-loop measurement point at [rate] arrivals/s. *)
  let point ?admission ~seed rate =
    let w =
      World.make ~net_config:net ~params:Repro_gcs.Params.default
        ~attach_cpu:true ?admission ~seed ~n:servers ()
    in
    let wl =
      Workload.open_loop ~deadline ~busy_retries:3 ~sim:(World.sim w)
        ~mix:Workload.default_mix ~rate_per_sec:rate
        ~replicas:(World.replicas w) ()
    in
    World.run w ~ms:warmup_ms;
    Workload.start_measuring wl;
    World.run w ~ms:(Sim.Time.to_ms window);
    Workload.stop wl;
    let goodput = Workload.goodput wl ~over:window in
    let p99 = Sim.Stats.Summary.percentile (Workload.latencies_ms wl) 99. in
    (* Congestion shows up as an unbounded CPU receive queue: report the
       worst replica so a collapsed point is attributable at a glance. *)
    let cpuq =
      List.fold_left
        (fun acc r ->
          match Repro_core.Replica.cpu_stats r with
          | Some (q, _) -> max acc q
          | None -> acc)
        0 (World.replicas w)
    in
    (goodput, p99, Workload.busy_retried wl, Workload.shed wl, cpuq)
  in
  (* Saturation: ramp the offered rate (no admission control) until
     goodput stops tracking it — closed-loop estimates are latency-bound
     and undershoot the knee badly on this profile. *)
  let rec ramp rate last_good =
    if rate > 1_000_000. then last_good
    else begin
      let goodput, p99, _, _, _ = point ~seed:9 rate in
      Format.fprintf eppf "bench9: ramp %9.0f/s -> goodput %9.1f/s p99 %8.2f ms@."
        rate goodput p99;
      if goodput >= 0.9 *. rate then ramp (rate *. 2.) rate
      else last_good
    end
  in
  let saturation = ramp 250. 250. in
  Format.fprintf eppf "bench9: saturation %.1f/s@." saturation;
  let multipliers = [ 0.5; 1.0; 1.5; 2.0; 3.0 ] in
  let sweep ~admit =
    List.map
      (fun m ->
        let goodput, p99, retries, shed, cpuq =
          point
            ?admission:(if admit then Some admission else None)
            ~seed:(9 + int_of_float (m *. 10.))
            (m *. saturation)
        in
        Format.fprintf eppf
          "bench9: admission=%b offered %4.1fx -> goodput %8.1f/s p99 %8.2f \
           ms (retries %d, shed %d, max cpu queue %d)@."
          admit m goodput p99 retries shed cpuq;
        (m, goodput, p99, retries, shed, cpuq))
      multipliers
  in
  let with_adm = sweep ~admit:true in
  let without_adm = sweep ~admit:false in
  let goodput_at pts m =
    List.fold_left
      (fun acc (m', g, _, _, _, _) ->
        if Float.abs (m' -. m) < 1e-9 then g else acc)
      0. pts
  in
  let peak pts =
    List.fold_left (fun acc (_, g, _, _, _, _) -> max acc g) 0. pts
  in
  let peak_adm = peak with_adm in
  let adm_2x = goodput_at with_adm 2.0 in
  let noadm_2x = goodput_at without_adm 2.0 in
  let plateau = adm_2x >= 0.8 *. peak_adm in
  let points name pts =
    let b = Buffer.create 512 in
    Printf.bprintf b "  %S: [\n" name;
    List.iteri
      (fun i (m, g, p99, retries, shed, cpuq) ->
        Printf.bprintf b
          "    { \"offered_x\": %.1f, \"goodput_per_s\": %.1f, \
           \"p99_ms\": %s, \"busy_retries\": %d, \"shed\": %d, \
           \"max_cpu_queue\": %d }%s\n"
          m g
          (* no completion within the deadline: no percentile *)
          (if Float.is_nan p99 then "null" else Printf.sprintf "%.2f" p99)
          retries shed cpuq
          (if i = List.length pts - 1 then "" else ","))
      pts;
    Printf.bprintf b "  ]";
    Buffer.contents b
  in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"BENCH_9\",\n";
  add
    "  \"paper\": \"From Total Order to Database Replication (Amir & Tutu, \
     ICDCS 2002)\",\n";
  add "  \"servers\": %d,\n" servers;
  add "  \"deadline_ms\": %.0f,\n" (Sim.Time.to_ms deadline);
  add "  \"window_s\": %.1f,\n" (Sim.Time.to_sec window);
  add "  \"admission\": { \"max_inflight\": %d, \"max_red\": %d },\n"
    admission.Repro_core.Replica.adm_max_inflight
    admission.Repro_core.Replica.adm_max_red;
  add "  \"saturation_per_s\": %.1f,\n" saturation;
  add "%s,\n" (points "with_admission" with_adm);
  add "%s,\n" (points "without_admission" without_adm);
  add "  \"guard\": {\n";
  add "    \"peak_goodput_per_s\": %.1f,\n" peak_adm;
  add "    \"goodput_at_2x_with_admission\": %.1f,\n" adm_2x;
  add "    \"goodput_at_2x_without_admission\": %.1f,\n" noadm_2x;
  add "    \"plateau_pass\": %b\n" plateau;
  add "  }\n";
  add "}\n";
  print_string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* `bench10` mode: emit BENCH_10.json on stdout — the two hot-path
   microbenchmarks behind the cost-analysis PR, swept over membership
   sizes.  "Before" is a bench-local reimplementation of the removed
   shape (the code itself is gone from the tree):

   - exchange: the old ComputeKnowledge intersected valid yellow sets
     by folding [List.filter (List.mem ...)] across members — O(n·m²)
     list scans.  The naive fold here times that intersection *alone*,
     a lower bound on the old exchange cost; the after-number is the
     full [Knowledge.compute] on the counting-table path.
   - step: the old simulator event queue was the generic closure-
     comparator heap over (float time, seq) pairs — every sift boxes
     two floats and calls a closure.  The after-number is the inline
     int-keyed [Heap.Keyed] the engine now runs on.

   Regenerate the committed copy with

       dune exec bench/main.exe -- bench10 > BENCH_10.json

   The runtest guard (bench/check_bench10.ml) re-parses the committed
   file and re-asserts after < before at 200 members, so the perf
   claim of the rework can never silently drift from the artifact.    *)

let bench10 () =
  let eppf = Format.err_formatter in
  let module Node_id = Repro_net.Node_id in
  let module Types = Repro_core.Types in
  let module Knowledge = Repro_core.Knowledge in
  let module Action = Repro_db.Action in
  let time ~reps f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in
  (* Exchange-shaped state: every member advertises a yellow prefix of
     ~n actions (all sharing the common n-prefix, so the intersection
     has real work to do), a green count and a red cut. *)
  let states_for n =
    let ids = List.init n Fun.id in
    let members = Node_id.set_of_list ids in
    let prim = Types.initial_prim ~servers:members in
    let yellow_ids len =
      List.init len (fun i -> { Action.Id.server = 0; index = i + 1 })
    in
    let states =
      List.fold_left
        (fun m s ->
          let sm =
            {
              Types.sm_server = s;
              sm_conf = { Repro_gcs.Conf_id.coord = 0; counter = 1 };
              sm_red_cut = Node_id.Map.singleton 0 (50 + (s mod 3));
              sm_green_count = 100 + (s mod 7);
              sm_green_line = None;
              sm_green_floor = 0;
              sm_attempt = s mod 4;
              sm_prim = prim;
              sm_vulnerable = Types.invalid_vulnerable;
              sm_yellow =
                { Types.y_valid = true; y_set = yellow_ids (n + (s mod 5)) };
            }
          in
          Node_id.Map.add s sm m)
        Node_id.Map.empty ids
    in
    (members, states)
  in
  (* The removed intersection shape: fold a filter-by-membership scan
     across every member's list. *)
  let naive_intersection states =
    Node_id.Map.fold
      (fun _ sm acc ->
        let ys = sm.Types.sm_yellow.Types.y_set in
        match acc with
        | None -> Some ys
        | Some cur -> Some (List.filter (fun a -> List.mem a ys) cur))
      states None
  in
  (* Event-queue churn: [n] timers pending, 100k pop-reschedule ops. *)
  let churn_ops = 100_000 in
  let heap_before n () =
    let cmp (a_at, a_seq) (b_at, b_seq) =
      if Float.compare a_at b_at <> 0 then Float.compare a_at b_at
      else Int.compare a_seq b_seq
    in
    let h = Sim.Heap.create ~cmp in
    for i = 0 to n - 1 do
      Sim.Heap.push h (float_of_int (i * 17), i)
    done;
    let state = ref 9 in
    for i = 0 to churn_ops - 1 do
      match Sim.Heap.pop h with
      | Some (at, _) ->
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        Sim.Heap.push h (at +. float_of_int (1 + (!state mod 64)), n + i)
      | None -> ()
    done
  in
  let heap_after n () =
    let h = Sim.Heap.Keyed.create () in
    for i = 0 to n - 1 do
      Sim.Heap.Keyed.push h ~key:(i * 17) ~tie:i i
    done;
    let state = ref 9 in
    for i = 0 to churn_ops - 1 do
      let at = Sim.Heap.Keyed.min_key h in
      ignore (Sim.Heap.Keyed.pop h);
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      Sim.Heap.Keyed.push h ~key:(at + 1 + (!state mod 64)) ~tie:(n + i) (n + i)
    done
  in
  let sizes = [ 50; 100; 200 ] in
  let points =
    List.map
      (fun n ->
        let members, states = states_for n in
        let naive_us =
          time ~reps:(max 4 (2000 / n)) (fun () -> naive_intersection states)
        in
        let exchange_us =
          time ~reps:50 (fun () -> Knowledge.compute ~members states)
        in
        let before_ns =
          time ~reps:5 (heap_before n) /. float_of_int churn_ops *. 1e3
        in
        let after_ns =
          time ~reps:5 (heap_after n) /. float_of_int churn_ops *. 1e3
        in
        Format.fprintf eppf
          "bench10: n=%3d  intersect(naive) %9.1f us  exchange(after) %9.1f \
           us  step %7.1f -> %7.1f ns/op@."
          n naive_us exchange_us before_ns after_ns;
        (n, naive_us, exchange_us, before_ns, after_ns))
      sizes
  in
  let at_200 =
    List.find (fun (n, _, _, _, _) -> n = 200) points
  in
  let _, naive200, exch200, hb200, ha200 = at_200 in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"bench\": \"BENCH_10\",\n";
  add
    "  \"paper\": \"From Total Order to Database Replication (Amir & Tutu, \
     ICDCS 2002)\",\n";
  add "  \"churn_ops\": %d,\n" churn_ops;
  add "  \"points\": [\n";
  List.iteri
    (fun i (n, naive_us, exchange_us, before_ns, after_ns) ->
      add
        "    { \"members\": %d, \"intersect_naive_us\": %.2f, \
         \"exchange_us\": %.2f, \"step_closure_heap_ns_per_op\": %.2f, \
         \"step_keyed_heap_ns_per_op\": %.2f }%s\n"
        n naive_us exchange_us before_ns after_ns
        (if i = List.length points - 1 then "" else ","))
    points;
  add "  ],\n";
  add "  \"guard\": {\n";
  add "    \"exchange_speedup_at_200\": %.2f,\n" (naive200 /. exch200);
  add "    \"step_speedup_at_200\": %.2f,\n" (hb200 /. ha200);
  add "    \"exchange_pass\": %b,\n" (exch200 < naive200);
  add "    \"step_pass\": %b\n" (ha200 < hb200);
  add "  }\n";
  add "}\n";
  print_string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (bechamel): the core building blocks.              *)

let microbenchmarks () =
  let open Bechamel in
  let open Toolkit in
  let test_heap =
    Test.make ~name:"sim: heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Sim.Heap.create ~cmp:Int.compare in
           for i = 0 to 99 do
             Sim.Heap.push h (i * 7919 mod 100)
           done;
           for _ = 0 to 99 do
             ignore (Sim.Heap.pop h)
           done))
  in
  let test_rng =
    let rng = Sim.Rng.of_int 42 in
    Test.make ~name:"sim: rng draw x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Sim.Rng.int rng 1000)
           done))
  in
  let test_db =
    Test.make ~name:"db: apply 100 sets"
      (Staged.stage (fun () ->
           let db = Repro_db.Database.create () in
           for i = 0 to 99 do
             Repro_db.Database.apply db
               [ Repro_db.Op.Set (string_of_int (i mod 10), Repro_db.Value.Int i) ]
           done))
  in
  let test_queue =
    Test.make ~name:"core: action queue 100 greens"
      (Staged.stage (fun () ->
           let q = Repro_core.Action_queue.create () in
           for i = 1 to 100 do
             ignore
               (Repro_core.Action_queue.append_green q
                  (Repro_db.Action.make ~server:0 ~index:i
                     (Repro_db.Action.Update [])))
           done))
  in
  let test_quorum =
    let prev = Repro_net.Node_id.set_of_list (List.init 14 Fun.id) in
    let half = Repro_net.Node_id.set_of_list (List.init 8 Fun.id) in
    Test.make ~name:"core: quorum decision x100 (14 servers)"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Repro_core.Quorum.has_majority ~prev half)
           done))
  in
  let test_repcheck =
    let greens =
      List.init 200 (fun i ->
          { Repro_db.Action.Id.server = i mod 5; index = (i / 5) + 1 })
    in
    let snap node =
      {
        Check.Snapshot.ns_node = node;
        ns_incarnation = 0;
        ns_state = Repro_core.Types.Reg_prim;
        ns_green_floor = 0;
        ns_green_ids = greens;
        ns_green_count = 200;
        ns_green_line = None;
        ns_red_ids = [];
        ns_yellow = Repro_core.Types.invalid_yellow;
        ns_red_cut = Repro_net.Node_id.Map.empty;
        ns_white_line = 0;
        ns_prim =
          Repro_core.Types.initial_prim
            ~servers:(Repro_net.Node_id.set_of_list (List.init 10 Fun.id));
        ns_vulnerable = Repro_core.Types.invalid_vulnerable;
        ns_in_primary = false;
      }
    in
    let snaps = List.init 10 snap in
    Test.make ~name:"check: invariant sweep (10 replicas x 200 greens)"
      (Staged.stage (fun () -> ignore (Check.Snapshot.check_observation snaps)))
  in
  let test_sim_round =
    Test.make ~name:"sim: engine 1000 events"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           for i = 1 to 1000 do
             ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_us i) (fun () -> ()))
           done;
           Sim.Engine.run e))
  in
  let tests =
    [
      test_heap;
      test_rng;
      test_db;
      test_queue;
      test_quorum;
      test_repcheck;
      test_sim_round;
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Format.fprintf ppf "@.== Micro-benchmarks (bechamel) ==@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ estimate ] ->
            Format.fprintf ppf "%-44s %12.1f ns/run@." name estimate
          | _ -> Format.fprintf ppf "%-44s (no estimate)@." name)
        analysis)
    tests

let () =
  if bench6_mode then begin
    bench6 ();
    exit 0
  end;
  if bench9_mode then begin
    bench9 ();
    exit 0
  end;
  if bench10_mode then begin
    bench10 ();
    exit 0
  end;
  Format.fprintf ppf
    "Reproduction benchmarks: From Total Order to Database Replication@.\
     (Amir & Tutu, ICDCS 2002) — simulated substrate, virtual time.@.";
  repcheck_sanity ();
  recovery_table ();
  mcheck_space ();
  figure_5a ();
  figure_5b ();
  latency_table ();
  wan ();
  ablations ();
  microbenchmarks ();
  Format.fprintf ppf "@.bench: done@."
