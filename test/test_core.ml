(* End-to-end tests of the replication engine: primary installation,
   green ordering, partitions (primary and non-primary sides), merges
   and convergence, crash/recovery, dynamic join/leave, and the relaxed
   semantics of paper §6. *)

open Repro_sim
open Repro_net
open Repro_db
open Repro_core

let fast_lan =
  {
    Network.lan_100mbit with
    send_cpu_cost = Time.zero;
    recv_cpu_cost = Time.zero;
    recv_cpu_per_kb = Time.zero;
  }

(* A fast disk keeps scenario tests snappy; correctness is unaffected. *)
let fast_disk =
  {
    Repro_storage.Disk.default_forced with
    sync_latency = Time.of_ms 1.;
  }

type world = {
  cluster : Replica.cluster;
  replicas : (Node_id.t, Replica.t) Hashtbl.t;
}

let make_world ?(seed = 21) n =
  let nodes = List.init n Fun.id in
  let cluster =
    Replica.make_cluster ~net_config:fast_lan ~params:Repro_gcs.Params.fast
      ~seed ~nodes ()
  in
  let replicas = Hashtbl.create n in
  List.iter
    (fun node ->
      let r =
        Replica.create ~disk_config:fast_disk ~attach_cpu:false ~cluster ~node
          ~servers:nodes ()
      in
      Hashtbl.replace replicas node r)
    nodes;
  { cluster; replicas }

let rep w n = Hashtbl.find w.replicas n
let all_replicas w = Hashtbl.fold (fun _ r acc -> r :: acc) w.replicas []

let start_all w = List.iter Replica.start (all_replicas w)

let run_sim w ~ms =
  let sim = Replica.cluster_sim w.cluster in
  Repro_sim.Engine.run
    ~until:(Repro_sim.Time.add (Repro_sim.Engine.now sim) ~span:(Time.of_ms ms))
    sim

let topo w = Replica.cluster_topology w.cluster

let set_kv r key v ~on_response =
  Replica.submit r (Action.Update [ Op.Set (key, Value.Int v) ]) ~on_response

let set_kv' r key v = set_kv r key v ~on_response:(fun _ -> ())

let green_ids r =
  List.map (fun a -> a.Action.id) (Repro_core.Engine.green_actions (Replica.engine r))

let check_green_prefix_consistent name ra rb =
  let ga = green_ids ra and gb = green_ids rb in
  let rec prefix a b =
    match (a, b) with
    | [], _ | _, [] -> true
    | x :: a', y :: b' -> Action.Id.equal x y && prefix a' b'
  in
  Alcotest.(check bool)
    (name ^ ": green prefixes consistent")
    true (prefix ga gb)

let check_db_equal name ra rb =
  Alcotest.(check int)
    (name ^ ": databases converged")
    (Database.digest (Replica.database ra))
    (Database.digest (Replica.database rb))

let count_in_primary w =
  List.length (List.filter Replica.in_primary (all_replicas w))

(* ------------------------------------------------------------------ *)

let test_primary_installs () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d in primary" (Replica.node r))
        true (Replica.in_primary r))
    (all_replicas w)

let test_actions_turn_green_everywhere () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  let responses = ref 0 in
  for i = 1 to 10 do
    set_kv (rep w (i mod 3)) (Printf.sprintf "k%d" i) i ~on_response:(fun _ ->
        incr responses)
  done;
  run_sim w ~ms:500.;
  Alcotest.(check int) "all clients answered" 10 !responses;
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d green count" (Replica.node r))
        10
        (Repro_core.Engine.green_count (Replica.engine r)))
    (all_replicas w);
  check_green_prefix_consistent "steady" (rep w 0) (rep w 1);
  check_db_equal "steady" (rep w 0) (rep w 2)

let test_partition_majority_keeps_primary () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  Alcotest.(check bool) "majority side in primary" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 2));
  Alcotest.(check bool) "minority side out of primary" true
    ((not (Replica.in_primary (rep w 3))) && not (Replica.in_primary (rep w 4)));
  Alcotest.(check int) "exactly three in primary" 3 (count_in_primary w)

let test_minority_actions_stay_red () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  let minority_answered = ref false in
  set_kv (rep w 3) "m" 1 ~on_response:(fun _ -> minority_answered := true);
  set_kv' (rep w 0) "p" 2;
  run_sim w ~ms:800.;
  Alcotest.(check bool) "minority update unanswered (strict)" false
    !minority_answered;
  Alcotest.(check bool) "red at minority" true
    (List.length (Repro_core.Engine.red_actions (Replica.engine (rep w 3))) >= 1);
  Alcotest.(check bool) "primary committed its action" true
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)) >= 1);
  (* Merge: the red action is ordered and everyone converges. *)
  Topology.merge_all (topo w);
  run_sim w ~ms:2500.;
  Alcotest.(check bool) "minority answered after merge" true !minority_answered;
  check_db_equal "after merge" (rep w 0) (rep w 3);
  check_green_prefix_consistent "after merge" (rep w 2) (rep w 4)

let test_no_primary_without_quorum () =
  let w = make_world 4 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2; 3 ] ];
  run_sim w ~ms:1500.;
  (* 2 of 4 with the tie-breaker (node 0) forms the primary; the other
     half must not. *)
  Alcotest.(check bool) "tie-breaker side wins" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 1));
  Alcotest.(check bool) "other side blocked" true
    ((not (Replica.in_primary (rep w 2))) && not (Replica.in_primary (rep w 3)))

let test_cascaded_partitions_single_primary () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1200.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1200.;
  (* {0,1} holds 2 of the last primary {0,1,2}: majority. *)
  Alcotest.(check bool) "cascaded majority holds primary" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 1));
  Alcotest.(check int) "exactly two in primary" 2 (count_in_primary w);
  Topology.merge_all (topo w);
  run_sim w ~ms:2500.;
  Alcotest.(check int) "all five recover primary" 5 (count_in_primary w)

let test_crash_recover_rejoins () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 5 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  Replica.crash (rep w 2);
  run_sim w ~ms:800.;
  Alcotest.(check bool) "survivors keep primary" true
    (Replica.in_primary (rep w 0) && Replica.in_primary (rep w 1));
  set_kv' (rep w 0) "after" 9;
  run_sim w ~ms:500.;
  Replica.recover (rep w 2);
  run_sim w ~ms:2000.;
  Alcotest.(check bool) "recovered back in primary" true
    (Replica.in_primary (rep w 2));
  check_db_equal "after recovery" (rep w 0) (rep w 2);
  check_green_prefix_consistent "after recovery" (rep w 1) (rep w 2)

let test_total_crash_blocks_until_full_exchange () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  set_kv' (rep w 0) "x" 1;
  run_sim w ~ms:500.;
  (* Everyone crashes. *)
  List.iter Replica.crash (all_replicas w);
  run_sim w ~ms:200.;
  (* All recover: after mutual exchange, the primary must re-form and the
     durable action must survive. *)
  List.iter Replica.recover (all_replicas w);
  run_sim w ~ms:2500.;
  Alcotest.(check int) "primary re-formed" 3 (count_in_primary w);
  check_db_equal "after total crash" (rep w 0) (rep w 1);
  Alcotest.(check bool) "action survived" true
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)) >= 1)

let test_weak_and_dirty_queries () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  set_kv' (rep w 0) "g" 1;
  run_sim w ~ms:500.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  (* A minority update: red only. *)
  set_kv' (rep w 3) "g" 2;
  run_sim w ~ms:500.;
  (match Replica.weak_query (rep w 3) [ "g" ] with
  | [ ("g", Some (Value.Int 1)) ] -> ()
  | _ -> Alcotest.fail "weak query must serve the green (stale) state");
  match Replica.dirty_query (rep w 3) [ "g" ] with
  | [ ("g", Some (Value.Int 2)) ] -> ()
  | _ -> Alcotest.fail "dirty query must include red actions"

let test_commutative_semantics_respond_early () =
  let w = make_world 5 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1; 2 ]; [ 3; 4 ] ];
  run_sim w ~ms:1500.;
  let answered = ref false in
  Replica.submit (rep w 3) ~semantics:Action.Commutative
    (Action.Update [ Op.Add ("stock", 5) ])
    ~on_response:(fun _ -> answered := true);
  run_sim w ~ms:500.;
  Alcotest.(check bool) "commutative answered in minority" true !answered;
  Topology.merge_all (topo w);
  run_sim w ~ms:2500.;
  check_db_equal "stock converged" (rep w 0) (rep w 3)

let test_join_new_replica () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 5 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  (* A brand-new node 7 joins via sponsor 1. *)
  Topology.add_node (topo w) 7;
  let joiner =
    Replica.create_joiner ~disk_config:fast_disk ~attach_cpu:false
      ~cluster:w.cluster ~node:7 ~sponsors:[ 1 ] ()
  in
  Hashtbl.replace w.replicas 7 joiner;
  Replica.start joiner;
  run_sim w ~ms:3000.;
  Alcotest.(check bool) "joiner ready" true (Replica.is_ready joiner);
  Alcotest.(check bool) "joiner in primary" true (Replica.in_primary joiner);
  check_db_equal "joiner caught up" (rep w 0) joiner;
  (* The joiner now participates in ordering new actions. *)
  set_kv' joiner "from-joiner" 42;
  run_sim w ~ms:500.;
  check_db_equal "joiner action replicated" (rep w 2) joiner;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d knows joiner" (Replica.node r))
        true
        (Node_id.Set.mem 7 (Repro_core.Engine.known_servers (Replica.engine r))))
    (all_replicas w)

let test_leave_replica () =
  let w = make_world 4 in
  start_all w;
  run_sim w ~ms:800.;
  Replica.leave (rep w 3);
  run_sim w ~ms:2000.;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d removed leaver" n)
        false
        (Node_id.Set.mem 3 (Repro_core.Engine.known_servers (Replica.engine (rep w n)))))
    [ 0; 1; 2 ];
  Alcotest.(check int) "survivors keep primary" 3 (count_in_primary w)

let test_interactive_conflict_aborts_everywhere () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  Replica.submit (rep w 0) (Action.Update [ Op.Set ("seat", Value.Text "free") ])
    ~on_response:(fun _ -> ());
  run_sim w ~ms:500.;
  (* Two clients读 the seat as free and race to book it. *)
  let book r ~on_response =
    Replica.submit r
      (Action.Interactive
         {
           expected = [ ("seat", Some (Value.Text "free")) ];
           updates = [ Op.Set ("seat", Value.Text "taken") ];
         })
      ~on_response
  in
  let outcomes = ref [] in
  book (rep w 1) ~on_response:(fun r -> outcomes := r :: !outcomes);
  book (rep w 2) ~on_response:(fun r -> outcomes := r :: !outcomes);
  run_sim w ~ms:500.;
  let committed =
    List.length
      (List.filter (function Action.Committed _ -> true | _ -> false) !outcomes)
  and aborted =
    List.length
      (List.filter (function Action.Aborted -> true | _ -> false) !outcomes)
  in
  Alcotest.(check int) "exactly one commits" 1 committed;
  Alcotest.(check int) "exactly one aborts" 1 aborted;
  check_db_equal "seats agree" (rep w 0) (rep w 2)

(* --- weighted quorums, local queries, stats ------------------------- *)

let test_weighted_quorum_heavy_node_wins () =
  (* Node 2 carries weight 3 against two weight-1 peers: alone it holds a
     majority of the total 5 and keeps the primary on its side. *)
  let nodes = [ 0; 1; 2 ] in
  let cluster =
    Replica.make_cluster ~net_config:fast_lan ~params:Repro_gcs.Params.fast
      ~seed:61 ~nodes ()
  in
  let weights = Node_id.Map.add 2 3 Node_id.Map.empty in
  let replicas =
    List.map
      (fun node ->
        let r =
          Replica.create ~disk_config:fast_disk ~attach_cpu:false ~weights
            ~cluster ~node ~servers:nodes ()
        in
        Replica.start r;
        (node, r))
      nodes
  in
  let sim = Replica.cluster_sim cluster in
  Repro_sim.Engine.run ~until:(Time.of_ms 800.) sim;
  Topology.partition (Replica.cluster_topology cluster) [ [ 0; 1 ]; [ 2 ] ];
  Repro_sim.Engine.run ~until:(Time.of_ms 2300.) sim;
  Alcotest.(check bool) "heavy singleton keeps primary" true
    (Replica.in_primary (List.assoc 2 replicas));
  Alcotest.(check bool) "light pair blocked" false
    (Replica.in_primary (List.assoc 0 replicas)
    || Replica.in_primary (List.assoc 1 replicas))

let test_local_query_session_consistency () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  (* Submit an update, then immediately a local query through the same
     replica: the query must wait for the update and see its effect —
     without being globally ordered itself. *)
  set_kv' (rep w 0) "session" 7;
  let result = ref None in
  Replica.local_query (rep w 0) [ "session" ] ~on_response:(fun r ->
      result := Some r);
  Alcotest.(check bool) "query waits for the pending update" true (!result = None);
  run_sim w ~ms:500.;
  (match !result with
  | Some [ ("session", Some (Value.Int 7)) ] -> ()
  | _ -> Alcotest.fail "local query must observe the session's own write");
  (* With no pending actions the answer is immediate. *)
  let immediate = ref None in
  Replica.local_query (rep w 1) [ "session" ] ~on_response:(fun r ->
      immediate := Some r);
  Alcotest.(check bool) "immediate when drained" true (!immediate <> None)

let test_engine_stats_track_membership () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  let s0 = Repro_core.Engine.stats (Replica.engine (rep w 0)) in
  let installs_before = s0.Repro_core.Engine.s_installs in
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ] ];
  run_sim w ~ms:1200.;
  Topology.merge_all (topo w);
  run_sim w ~ms:2000.;
  Alcotest.(check bool) "exchanges counted" true
    (s0.Repro_core.Engine.s_exchanges >= 2);
  Alcotest.(check bool) "installs counted" true
    (s0.Repro_core.Engine.s_installs > installs_before)

(* --- checkpoints and garbage collection ----------------------------- *)

let test_checkpoint_compacts_log () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 30 do
    set_kv' (rep w (i mod 3)) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:1000.;
  let before = Replica.log_entries (rep w 0) in
  Replica.checkpoint_now (rep w 0);
  run_sim w ~ms:500.;
  let after = Replica.log_entries (rep w 0) in
  Alcotest.(check bool)
    (Printf.sprintf "log compacted (%d -> %d)" before after)
    true (after < before);
  (* Crash and recover from the checkpoint: same state as peers. *)
  Replica.crash (rep w 0);
  run_sim w ~ms:800.;
  Replica.recover (rep w 0);
  run_sim w ~ms:2000.;
  check_db_equal "recovered from checkpoint" (rep w 0) (rep w 1);
  Alcotest.(check int) "green count preserved" 30
    (Repro_core.Engine.green_count (Replica.engine (rep w 0)))

let test_joiner_crash_recovers_inherited_state () =
  let w = make_world 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 10 do
    set_kv' (rep w 0) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  Topology.add_node (topo w) 7;
  let joiner =
    Replica.create_joiner ~disk_config:fast_disk ~attach_cpu:false
      ~cluster:w.cluster ~node:7 ~sponsors:[ 1 ] ()
  in
  Hashtbl.replace w.replicas 7 joiner;
  Replica.start joiner;
  run_sim w ~ms:3000.;
  Alcotest.(check bool) "joined" true (Replica.is_ready joiner);
  (* The joiner's database came by snapshot, not by actions: a crash must
     not lose the inherited prefix. *)
  Replica.crash joiner;
  run_sim w ~ms:800.;
  Replica.recover joiner;
  run_sim w ~ms:2500.;
  Alcotest.(check bool) "re-joined" true (Replica.is_ready joiner);
  check_db_equal "inherited state survived the crash" (rep w 0) joiner

let test_gc_respects_laggards () =
  (* White-action GC must never discard bodies a detached replica still
     needs: the white line is the minimum green count over *known*
     servers, including unreachable ones. *)
  let w = make_world ~seed:29 3 in
  start_all w;
  run_sim w ~ms:800.;
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ] ];
  run_sim w ~ms:1200.;
  for i = 1 to 40 do
    set_kv' (rep w (i mod 2)) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:1000.;
  (* Aggressive checkpointing while replica 2 is away. *)
  Replica.checkpoint_now (rep w 0);
  Replica.checkpoint_now (rep w 1);
  run_sim w ~ms:500.;
  Topology.merge_all (topo w);
  run_sim w ~ms:3000.;
  check_db_equal "laggard caught up despite GC" (rep w 0) (rep w 2);
  Alcotest.(check int) "all actions reached the laggard" 40
    (Repro_core.Engine.green_count (Replica.engine (rep w 2)))

let green_floor r =
  let e = Replica.engine r in
  Repro_core.Engine.green_count e
  - List.length (Repro_core.Engine.green_actions e)

(* Steady-state white-action GC: every creator stamps the green line of
   its last durable checkpoint on the actions it creates, and delivering
   those stamps in the regular primary raises the white line — no view
   change needed.  The next checkpoint then drops the white bodies. *)
let test_white_line_advances_without_view_change () =
  let w = make_world ~seed:33 3 in
  start_all w;
  run_sim w ~ms:800.;
  let exchanges () =
    List.fold_left
      (fun acc r -> acc + (Repro_core.Engine.stats (Replica.engine r)).s_exchanges)
      0 (all_replicas w)
  in
  let round base =
    for i = 1 to 30 do
      set_kv' (rep w (i mod 3)) (Printf.sprintf "k%d" (base + i)) i
    done;
    run_sim w ~ms:500.
  in
  round 0;
  let white0 = Repro_core.Engine.white_line (Replica.engine (rep w 0)) in
  let exchanges0 = exchanges () in
  List.iter Replica.checkpoint_now (all_replicas w);
  run_sim w ~ms:50.;
  round 30;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "n%d in the regular primary" (Replica.node r))
        true
        (Replica.state r = Types.Reg_prim))
    (all_replicas w);
  Alcotest.(check int) "no view change" exchanges0 (exchanges ());
  let white = Repro_core.Engine.white_line (Replica.engine (rep w 0)) in
  Alcotest.(check bool)
    (Printf.sprintf "white line %d -> %d: the checkpointed 30 are white"
       white0 white)
    true
    (white0 < 30 && white >= 30);
  (* The next checkpoint discards the white bodies ... *)
  List.iter Replica.checkpoint_now (all_replicas w);
  run_sim w ~ms:50.;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "n%d floor at the white line" (Replica.node r))
        true
        (green_floor r >= 30))
    (all_replicas w);
  (* ... and the order goes on above the floor. *)
  round 60;
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "n%d green count" (Replica.node r))
        90
        (Repro_core.Engine.green_count (Replica.engine r)))
    (all_replicas w);
  check_green_prefix_consistent "after discard" (rep w 0) (rep w 1);
  check_db_equal "after discard" (rep w 0) (rep w 2)

(* A replica whose salvaged log sets it back below positions every peer
   has discarded as white cannot be served by retransmission: it must
   re-enter by snapshot and converge. *)
let test_behind_every_floor_catches_up_by_snapshot () =
  let w = make_world ~seed:35 3 in
  start_all w;
  run_sim w ~ms:800.;
  for i = 1 to 30 do
    set_kv' (rep w (i mod 3)) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  (* A view change with all three present records everyone's green count
     (30) at everyone. *)
  Topology.partition (topo w) [ [ 0; 1 ]; [ 2 ] ];
  run_sim w ~ms:300.;
  Topology.merge_all (topo w);
  run_sim w ~ms:1000.;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "n%d back in the primary" (Replica.node r))
        true (Replica.in_primary r))
    (all_replicas w);
  (* Replica 2 crashes and its log is damaged early: recovery salvages
     the prefix before the damage and under-claims its greens. *)
  let laggard = rep w 2 in
  Replica.crash laggard;
  Alcotest.(check bool) "log damaged" true
    (Replica.corrupt_log laggard ~nth:(Replica.log_entries laggard / 4));
  (* Meanwhile the others move on and discard everything white. *)
  for i = 31 to 40 do
    set_kv' (rep w (i mod 2)) (Printf.sprintf "k%d" i) i
  done;
  run_sim w ~ms:500.;
  Replica.checkpoint_now (rep w 0);
  Replica.checkpoint_now (rep w 1);
  run_sim w ~ms:50.;
  Alcotest.(check bool) "peers discarded the first 30" true
    (green_floor (rep w 0) >= 30 && green_floor (rep w 1) >= 30);
  let incarnation = Replica.incarnation laggard in
  Replica.recover laggard;
  (match Replica.last_recovery laggard with
  | Some (Persist.V_salvaged _) -> ()
  | Some v -> Alcotest.failf "expected a salvaged recovery, got %a" Persist.pp_verdict v
  | None -> Alcotest.fail "no recovery verdict");
  Alcotest.(check bool) "salvage set the laggard behind the floors" true
    (Repro_core.Engine.green_count (Replica.engine laggard) < 30);
  run_sim w ~ms:3000.;
  Alcotest.(check bool) "re-entered by snapshot (fresh incarnation)" true
    (Replica.incarnation laggard > incarnation);
  Alcotest.(check bool) "laggard ready" true (Replica.is_ready laggard);
  Alcotest.(check int) "laggard caught up" 40
    (Repro_core.Engine.green_count (Replica.engine laggard));
  check_db_equal "caught up by snapshot" (rep w 0) laggard;
  set_kv' laggard "after" 1;
  run_sim w ~ms:500.;
  check_db_equal "serves again" (rep w 0) laggard

let test_periodic_checkpoint_bounds_log () =
  let nodes = [ 0; 1; 2 ] in
  let cluster =
    Replica.make_cluster ~net_config:fast_lan ~params:Repro_gcs.Params.fast
      ~seed:31 ~nodes ()
  in
  let replicas =
    List.map
      (fun node ->
        let r =
          Replica.create ~disk_config:fast_disk ~attach_cpu:false
            ~checkpoint_every:(Some 20) ~cluster ~node ~servers:nodes ()
        in
        Replica.start r;
        (node, r))
      nodes
  in
  let sim = Replica.cluster_sim cluster in
  Repro_sim.Engine.run ~until:(Time.of_ms 800.) sim;
  for i = 1 to 100 do
    Replica.submit
      (List.assoc (i mod 3) replicas)
      (Action.Update [ Op.Set ("x", Value.Int i) ])
      ~on_response:(fun _ -> ())
  done;
  Repro_sim.Engine.run ~until:(Time.of_sec 3.) sim;
  (* 100 actions logged at ~2 entries each; periodic checkpoints keep the
     log near one checkpoint interval. *)
  Alcotest.(check bool) "log stays bounded" true
    (Replica.log_entries (List.assoc 0 replicas) < 120)

(* --- persistence and knowledge properties --------------------------- *)

let make_persist () =
  let sim = Repro_sim.Engine.create () in
  let disk =
    Repro_storage.Disk.create ~engine:sim
      ~config:{ Repro_storage.Disk.default_forced with sync_latency = Time.of_ms 1. }
      ()
  in
  (sim, Persist.create ~engine:sim ~disk ())

let test_persist_torn_batch_fifo_gap_free () =
  (* A delivery burst logged as one multi-record frame must be lost or
     kept as a unit: a crash that tears the in-flight frame may not
     leave a creator's FIFO with a gap (say, index 3 salvaged while
     index 2 died with the frame). *)
  let sim = Repro_sim.Engine.create () in
  let disk =
    Repro_storage.Disk.create ~engine:sim
      ~config:
        {
          Repro_storage.Disk.default_forced with
          sync_latency = Time.of_ms 1.;
          sync_jitter = 0.;
          faults =
            { Repro_storage.Disk.no_faults with torn_tail_on_crash = 1.0 };
        }
      ()
  in
  let persist = Persist.create ~engine:sim ~disk () in
  let a cr i = Action.make ~server:cr ~index:i (Action.Update []) in
  Persist.log_red persist (a 1 1);
  Persist.log_red persist (a 2 1);
  Persist.sync persist ignore;
  Repro_sim.Engine.run sim;
  (* One in-flight burst frame carrying creator 1's next two actions. *)
  Persist.log_red_batch persist [ a 1 2; a 1 3 ];
  Persist.crash persist;
  let r = Persist.recover ~self:0 persist in
  (match r.Persist.r_verdict with
  | Persist.V_torn_tail n ->
    Alcotest.(check int) "the whole frame was truncated" 2 n
  | v ->
    Alcotest.failf "expected a torn tail, got %a" Persist.pp_verdict v);
  Alcotest.(check (list (pair int int)))
    "durable reds survive in arrival order, no partial batch"
    [ (1, 1); (2, 1) ]
    (List.map
       (fun act ->
         (act.Action.id.Action.Id.server, act.Action.id.Action.Id.index))
       r.Persist.r_red);
  List.iter
    (fun (creator, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "creator %d red cut is gap-free" creator)
        expected
        (Option.value ~default:0
           (Node_id.Map.find_opt creator r.Persist.r_red_cut)))
    [ (1, 1); (2, 1) ]

let prop_persist_recovery_invariants =
  (* Random interleavings of ongoing/red/green logging from 3 creators:
     recovery must produce a contiguous red cut per creator, greens in
     logged order, and own ongoing actions above the red cut. *)
  QCheck.Test.make ~name:"recovery invariants over random logs" ~count:100
    QCheck.(list (pair (int_bound 2) bool))
    (fun script ->
      let sim, persist = make_persist () in
      let next = Array.make 3 0 in
      let logged_green = ref [] in
      List.iter
        (fun (creator, also_green) ->
          next.(creator) <- next.(creator) + 1;
          let a =
            Action.make ~server:creator ~index:next.(creator) (Action.Update [])
          in
          if creator = 0 then Persist.log_ongoing persist a;
          Persist.log_red persist a;
          if also_green then begin
            Persist.log_green persist a.Action.id;
            logged_green := a.Action.id :: !logged_green
          end)
        script;
      Persist.sync persist ignore;
      Repro_sim.Engine.run sim;
      let r = Persist.recover ~self:0 persist in
      let greens = List.map (fun a -> a.Action.id) r.Persist.r_green in
      let cut_ok =
        List.for_all
          (fun c ->
            match Node_id.Map.find_opt c r.Persist.r_red_cut with
            | Some cut -> cut = next.(c)
            | None -> next.(c) = 0)
          [ 0; 1; 2 ]
      in
      let greens_ok = greens = List.rev !logged_green in
      let ongoing_ok =
        List.for_all
          (fun a -> a.Action.id.Action.Id.index > next.(0))
          r.Persist.r_ongoing
        (* every own action was logged red, so none is still ongoing *)
        && r.Persist.r_ongoing = []
      in
      cut_ok && greens_ok && ongoing_ok)

let mk_state ~server ~green ~floor ~cuts =
  {
    Types.sm_server = server;
    sm_conf = { Repro_gcs.Conf_id.coord = 0; counter = 1 };
    sm_red_cut =
      List.fold_left
        (fun m (c, i) -> Node_id.Map.add c i m)
        Node_id.Map.empty cuts;
    sm_green_count = green;
    sm_green_line = None;
    sm_green_floor = floor;
    sm_attempt = 0;
    sm_prim = Types.initial_prim ~servers:(Node_id.set_of_list [ 0; 1; 2 ]);
    sm_vulnerable = Types.invalid_vulnerable;
    sm_yellow = Types.invalid_yellow;
  }

(* ComputeKnowledge at exchange scale: 200 members, each advertising a
   different yellow prefix, green count and red cut.  Checks the
   intersection (reference order preserved, shortest prefix survives),
   the green span and plan, and the per-creator red target — the
   whole-group path the intersection/array rework optimizes. *)
let test_knowledge_exchange_200_members () =
  let n = 200 in
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
              { Types.y_valid = true; y_set = yellow_ids (10 + (s mod 5)) };
          }
        in
        Node_id.Map.add s sm m)
      Node_id.Map.empty ids
  in
  let k = Knowledge.compute ~members states in
  Alcotest.(check int) "attempt is the group max" 3 k.Knowledge.k_attempt;
  Alcotest.(check int) "green target is the max count" 106
    k.Knowledge.k_green_target;
  Alcotest.(check bool) "yellow knowledge is valid" true
    k.Knowledge.k_yellow.Types.y_valid;
  Alcotest.(check bool) "yellow intersection keeps the reference prefix" true
    (k.Knowledge.k_yellow.Types.y_set = yellow_ids 10);
  Alcotest.(check bool) "red target is the max advertised cut" true
    (Node_id.Map.find_opt 0 k.Knowledge.k_red_targets = Some 52);
  let covered =
    List.fold_left
      (fun acc (_, from_pos, to_pos) -> if from_pos = acc then to_pos else acc)
      100 k.Knowledge.k_green_plan
  in
  Alcotest.(check int) "green plan covers (min, max]" 106 covered

let prop_knowledge_green_plan_covers =
  (* Whenever some member with floor 0 holds the maximum green count, the
     plan must cover exactly (min, max]. *)
  QCheck.Test.make ~name:"green plan covers the span" ~count:200
    QCheck.(pair (int_bound 50) (int_bound 50))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let states =
        [ (0, mk_state ~server:0 ~green:hi ~floor:0 ~cuts:[]);
          (1, mk_state ~server:1 ~green:lo ~floor:0 ~cuts:[]);
          (2, mk_state ~server:2 ~green:hi ~floor:hi ~cuts:[]) ]
        |> List.fold_left
             (fun m (n, sm) -> Node_id.Map.add n sm m)
             Node_id.Map.empty
      in
      let k =
        Knowledge.compute ~members:(Node_id.set_of_list [ 0; 1; 2 ]) states
      in
      let covered =
        List.fold_left
          (fun acc (_, from_pos, to_pos) ->
            if from_pos = acc then to_pos else acc)
          lo k.Knowledge.k_green_plan
      in
      covered = hi && k.Knowledge.k_green_target = hi)

let prop_knowledge_red_duties_cover =
  QCheck.Test.make ~name:"red duties cover every target" ~count:200
    QCheck.(list_of_size Gen.(return 3) (int_bound 20))
    (fun cuts ->
      match cuts with
      | [ c0; c1; c2 ] ->
        let state n own =
          mk_state ~server:n ~green:0 ~floor:0 ~cuts:[ (9, own) ]
        in
        let states =
          List.fold_left
            (fun m (n, sm) -> Node_id.Map.add n sm m)
            Node_id.Map.empty
            [ (0, state 0 c0); (1, state 1 c1); (2, state 2 c2) ]
        in
        let members = Node_id.set_of_list [ 0; 1; 2 ] in
        let k = Knowledge.compute ~members states in
        let all_duties =
          List.concat_map
            (fun self -> Knowledge.red_duties ~self ~knowledge:k ~states)
            [ 0; 1; 2 ]
        in
        let target = max c0 (max c1 c2) and low = min c0 (min c1 c2) in
        if target = low then all_duties = []
        else (
          match all_duties with
          | [ (9, d_low, d_high) ] -> d_low = low && d_high = target
          | _ -> false)
      | _ -> QCheck.assume_fail ())

(* --- unit tests of the pure pieces -------------------------------- *)

let test_quorum_majority () =
  let open Quorum in
  let set = Node_id.set_of_list in
  let prev = set [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "3 of 5" true (has_majority ~prev (set [ 0; 1; 2 ]));
  Alcotest.(check bool) "2 of 5" false (has_majority ~prev (set [ 3; 4 ]));
  Alcotest.(check bool) "tie with breaker" true
    (has_majority ~prev:(set [ 0; 1; 2; 3 ]) (set [ 0; 1 ]));
  Alcotest.(check bool) "tie without breaker" false
    (has_majority ~prev:(set [ 0; 1; 2; 3 ]) (set [ 2; 3 ]));
  Alcotest.(check bool) "vulnerable blocks" false
    (is_quorum ~prev ~vulnerable_present:true (set [ 0; 1; 2; 3; 4 ]))

let test_quorum_policies () =
  let set = Node_id.set_of_list in
  let all = set [ 0; 1; 2; 3; 4 ] in
  let prev = set [ 0; 1; 2 ] in
  (* {0,1} is a majority of the last primary but not of the full set. *)
  Alcotest.(check bool) "dlv adapts to the last primary" true
    (Quorum.policy_quorum Quorum.Dynamic_linear ~prev ~all
       ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "static majority refuses" false
    (Quorum.policy_quorum Quorum.Static_majority ~prev ~all
       ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "static majority accepts 3 of 5" true
    (Quorum.policy_quorum Quorum.Static_majority ~prev ~all
       ~vulnerable_present:false (set [ 2; 3; 4 ]));
  Alcotest.(check bool) "dlv refuses non-prim members" false
    (Quorum.policy_quorum Quorum.Dynamic_linear ~prev ~all
       ~vulnerable_present:false (set [ 3; 4 ]));
  Alcotest.(check bool) "vulnerability blocks both" false
    (Quorum.policy_quorum Quorum.Static_majority ~prev ~all
       ~vulnerable_present:true all)

let test_quorum_weight_ties () =
  let set = Node_id.set_of_list in
  let w l =
    List.fold_left
      (fun m (n, x) -> Node_id.Map.add n x m)
      Quorum.no_weights l
  in
  (* Exactly half the weight qualifies only with the tie-breaker — the
     heaviest member of the previous primary, lowest id among equals. *)
  let prev = set [ 0; 1; 2 ] in
  let weights = w [ (0, 2) ] (* total 4: 0 weighs 2, others 1 *) in
  Alcotest.(check bool) "half without the heavy tie-breaker" false
    (Quorum.has_majority ~weights ~prev (set [ 1; 2 ]));
  Alcotest.(check bool) "half with the heavy tie-breaker" true
    (Quorum.has_majority ~weights ~prev (set [ 0 ]));
  (* All weights equal: the tie-breaker falls to the lowest id. *)
  let even = w [ (0, 3); (1, 3); (2, 3); (3, 3) ] in
  let prev4 = set [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "equal-weight tie with node 0" true
    (Quorum.has_majority ~weights:even ~prev:prev4 (set [ 0; 1 ]));
  Alcotest.(check bool) "equal-weight tie without node 0" false
    (Quorum.has_majority ~weights:even ~prev:prev4 (set [ 2; 3 ]));
  (* A single heavy node can dominate the vote outright. *)
  let heavy = w [ (0, 5) ] in
  Alcotest.(check bool) "heavy singleton outweighs the rest" true
    (Quorum.has_majority ~weights:heavy ~prev (set [ 0 ]));
  Alcotest.(check bool) "light pair loses to the heavy node" false
    (Quorum.has_majority ~weights:heavy ~prev (set [ 1; 2 ]))

let test_quorum_empty_prev () =
  let set = Node_id.set_of_list in
  let empty = Node_id.Set.empty in
  (* An empty last-primary membership grants no quorum to anyone: the
     candidate must wait for knowledge of the real last primary. *)
  Alcotest.(check bool) "no majority of nothing" false
    (Quorum.has_majority ~prev:empty (set [ 0; 1; 2 ]));
  Alcotest.(check bool) "not even the empty set" false
    (Quorum.has_majority ~prev:empty empty);
  Alcotest.(check bool) "IsQuorum refuses too" false
    (Quorum.is_quorum ~prev:empty ~vulnerable_present:false (set [ 0; 1 ]));
  Alcotest.(check bool) "both policies refuse" false
    (Quorum.policy_quorum Quorum.Dynamic_linear ~prev:empty ~all:empty
       ~vulnerable_present:false (set [ 0 ])
    || Quorum.policy_quorum Quorum.Static_majority ~prev:empty ~all:empty
         ~vulnerable_present:false (set [ 0 ]))

(* The vulnerable record through ComputeKnowledge (paper A.7 steps 3-4):
   when is a proposed member still an obstacle to a quorum? *)
let test_knowledge_vulnerable_invalidation () =
  let set = Node_id.set_of_list in
  let members = set [ 0; 1; 2 ] in
  let vuln ~bits ~vset ~attempt =
    {
      Types.v_valid = true;
      v_prim_index = 0;
      v_attempt = attempt;
      v_set = set vset;
      v_bits = set bits;
    }
  in
  let states l =
    List.fold_left
      (fun m (n, sm) -> Node_id.Map.add n sm m)
      Node_id.Map.empty l
  in
  let base n = mk_state ~server:n ~green:0 ~floor:0 ~cuts:[] in
  let with_vuln n v = { (base n) with Types.sm_vulnerable = v } in
  let valid_members k =
    Node_id.Map.fold
      (fun n v acc -> if v.Types.v_valid then n :: acc else acc)
      k.Knowledge.k_vulnerable []
    |> List.rev
  in
  (* Step 4: the union of safe-delivery bits covers the whole attempt
     set — the outcome is durably known, vulnerability clears. *)
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, with_vuln 0 (vuln ~bits:[ 0 ] ~vset:[ 0; 1; 2 ] ~attempt:1));
           (1, with_vuln 1 (vuln ~bits:[ 1 ] ~vset:[ 0; 1; 2 ] ~attempt:1));
           (2, with_vuln 2 (vuln ~bits:[ 2 ] ~vset:[ 0; 1; 2 ] ~attempt:1));
         ])
  in
  Alcotest.(check (list int)) "united bits clear every record" []
    (valid_members k);
  (* Bits short of the set: the proposed members stay vulnerable, and a
     component containing them must be refused. *)
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, with_vuln 0 (vuln ~bits:[ 0 ] ~vset:[ 0; 1; 9 ] ~attempt:1));
           (1, with_vuln 1 (vuln ~bits:[ 1 ] ~vset:[ 0; 1; 9 ] ~attempt:1));
           (2, base 2);
         ])
  in
  Alcotest.(check (list int)) "absent participant keeps them vulnerable"
    [ 0; 1 ] (valid_members k);
  Alcotest.(check bool) "no quorum over a vulnerable member" false
    (Quorum.is_quorum ~prev:members ~vulnerable_present:true members);
  (* Step 3, contradiction: a member of the attempt set reports a
     different (or no) attempt — the attempt cannot have installed
     anywhere, the record clears. *)
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, with_vuln 0 (vuln ~bits:[] ~vset:[ 0; 2 ] ~attempt:1));
           (1, base 1);
           (2, base 2);
         ])
  in
  Alcotest.(check (list int)) "contradicted attempt clears" []
    (valid_members k);
  (* Step 3, membership: a vulnerable server outside the maximal known
     primary component cannot matter to its quorum. *)
  let outside_prim n v =
    {
      (with_vuln n v) with
      Types.sm_prim =
        { (Types.initial_prim ~servers:members) with
          Types.prim_servers = set [ 1; 2 ]
        };
    }
  in
  let k =
    Knowledge.compute ~members
      (states
         [
           (0, outside_prim 0 (vuln ~bits:[] ~vset:[ 0; 9 ] ~attempt:1));
           (1, outside_prim 1 Types.invalid_vulnerable);
           (2, outside_prim 2 Types.invalid_vulnerable);
         ])
  in
  Alcotest.(check (list int)) "outside the primary clears" []
    (valid_members k)

let prop_quorum_unique =
  QCheck.Test.make ~name:"two disjoint components never both quorate" ~count:300
    QCheck.(pair (list_of_size Gen.(return 5) (int_bound 1)) unit)
    (fun (mask, ()) ->
      let prev = Node_id.set_of_list [ 0; 1; 2; 3; 4 ] in
      let left =
        Node_id.set_of_list
          (List.filteri (fun i _ -> List.nth mask i = 0) [ 0; 1; 2; 3; 4 ])
      in
      let right = Node_id.Set.diff prev left in
      not
        (Quorum.has_majority ~prev left && Quorum.has_majority ~prev right))

let test_action_queue_basics () =
  let q = Action_queue.create () in
  let a i = Action.make ~server:0 ~index:i (Action.Update []) in
  Action_queue.add_red q (a 1);
  Action_queue.add_red q (a 2);
  Alcotest.(check int) "two red" 2 (Action_queue.red_count q);
  let pos = Action_queue.append_green q (a 1) in
  Alcotest.(check int) "first green position" 1 pos;
  Alcotest.(check int) "red shrank" 1 (Action_queue.red_count q);
  Alcotest.(check bool) "is green" true
    (Action_queue.is_green q { Action.Id.server = 0; index = 1 });
  Alcotest.(check int) "green count" 1 (Action_queue.green_count q);
  (match Action_queue.green_line q with
  | Some id -> Alcotest.(check bool) "green line" true (id.Action.Id.index = 1)
  | None -> Alcotest.fail "no green line")

let test_action_queue_discard () =
  let q = Action_queue.create () in
  let a i = Action.make ~server:0 ~index:i (Action.Update []) in
  for i = 1 to 10 do
    ignore (Action_queue.append_green q (a i))
  done;
  let dropped = Action_queue.discard_below q 6 in
  Alcotest.(check int) "six bodies dropped" 6 dropped;
  Alcotest.(check int) "count unchanged" 10 (Action_queue.green_count q);
  Alcotest.(check int) "floor raised" 6 (Action_queue.green_floor q);
  Alcotest.(check bool) "greenness preserved" true
    (Action_queue.is_green q { Action.Id.server = 0; index = 3 });
  Alcotest.(check (option int)) "body gone" None
    (Option.map (fun _ -> 0) (Action_queue.find q { Action.Id.server = 0; index = 3 }));
  Alcotest.(check int) "bodies above floor remain" 7
    (Action_queue.nth_green q 7).Action.id.Action.Id.index;
  Alcotest.(check int) "idempotent below floor" 0 (Action_queue.discard_below q 4)

(* Discarding drops the position index with the bodies; greenness of
   every discarded id — of every creator — still answers through the
   per-creator discard cut, and ids above it stay non-green. *)
let test_action_queue_discard_cut () =
  let q = Action_queue.create () in
  let a s i = Action.make ~server:s ~index:i (Action.Update []) in
  let id s i = { Action.Id.server = s; index = i } in
  List.iter
    (fun (s, i) -> ignore (Action_queue.append_green q (a s i)))
    [ (0, 1); (1, 1); (0, 2); (1, 2); (0, 3); (2, 1) ];
  ignore (Action_queue.discard_below q 4);
  Alcotest.(check (option int)) "position dropped" None
    (Action_queue.position q (id 1 2));
  Alcotest.(check (option int)) "position kept above the floor" (Some 5)
    (Action_queue.position q (id 0 3));
  List.iter
    (fun (s, i) ->
      Alcotest.(check bool)
        (Printf.sprintf "(%d, %d) still green" s i)
        true
        (Action_queue.is_green q (id s i)))
    [ (0, 1); (0, 2); (1, 1); (1, 2); (0, 3); (2, 1) ];
  List.iter
    (fun (s, i) ->
      Alcotest.(check bool)
        (Printf.sprintf "(%d, %d) not green" s i)
        false
        (Action_queue.is_green q (id s i)))
    [ (0, 4); (1, 3); (2, 2); (3, 1) ]

let test_action_queue_floor () =
  let q = Action_queue.create () in
  Action_queue.set_join_floor q ~count:10
    ~line:(Some { Action.Id.server = 3; index = 4 });
  Alcotest.(check int) "floor count" 10 (Action_queue.green_count q);
  let a = Action.make ~server:1 ~index:1 (Action.Update []) in
  let pos = Action_queue.append_green q a in
  Alcotest.(check int) "continues above floor" 11 pos;
  Alcotest.(check int) "nth above floor ok" 1
    (Action_queue.nth_green q 11).Action.id.Action.Id.index

let () =
  Alcotest.run "core"
    [
      ( "steady-state",
        [
          Alcotest.test_case "primary installs" `Quick test_primary_installs;
          Alcotest.test_case "actions green everywhere" `Quick
            test_actions_turn_green_everywhere;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "majority keeps primary" `Quick
            test_partition_majority_keeps_primary;
          Alcotest.test_case "minority stays red, merge converges" `Quick
            test_minority_actions_stay_red;
          Alcotest.test_case "no primary without quorum" `Quick
            test_no_primary_without_quorum;
          Alcotest.test_case "cascaded partitions" `Quick
            test_cascaded_partitions_single_primary;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash and recover" `Quick test_crash_recover_rejoins;
          Alcotest.test_case "total crash" `Quick
            test_total_crash_blocks_until_full_exchange;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "weak and dirty queries" `Quick
            test_weak_and_dirty_queries;
          Alcotest.test_case "commutative responds early" `Quick
            test_commutative_semantics_respond_early;
          Alcotest.test_case "interactive conflict aborts once" `Quick
            test_interactive_conflict_aborts_everywhere;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "join new replica" `Quick test_join_new_replica;
          Alcotest.test_case "leave replica" `Quick test_leave_replica;
        ] );
      ( "features",
        [
          Alcotest.test_case "weighted quorum" `Quick
            test_weighted_quorum_heavy_node_wins;
          Alcotest.test_case "local query session consistency" `Quick
            test_local_query_session_consistency;
          Alcotest.test_case "engine stats" `Quick test_engine_stats_track_membership;
        ] );
      ( "durability",
        [
          Alcotest.test_case "checkpoint compacts the log" `Quick
            test_checkpoint_compacts_log;
          Alcotest.test_case "joiner crash keeps inherited state" `Quick
            test_joiner_crash_recovers_inherited_state;
          Alcotest.test_case "gc respects laggards" `Quick test_gc_respects_laggards;
          Alcotest.test_case "white line advances without view change" `Quick
            test_white_line_advances_without_view_change;
          Alcotest.test_case "behind every floor: catch up by snapshot" `Quick
            test_behind_every_floor_catches_up_by_snapshot;
          Alcotest.test_case "periodic checkpoints bound the log" `Quick
            test_periodic_checkpoint_bounds_log;
        ] );
      ( "units",
        [
          Alcotest.test_case "quorum majority" `Quick test_quorum_majority;
          Alcotest.test_case "quorum policies" `Quick test_quorum_policies;
          Alcotest.test_case "quorum weight ties" `Quick test_quorum_weight_ties;
          Alcotest.test_case "quorum of empty last primary" `Quick
            test_quorum_empty_prev;
          Alcotest.test_case "vulnerable invalidation (A.7 steps 3-4)" `Quick
            test_knowledge_vulnerable_invalidation;
          QCheck_alcotest.to_alcotest prop_quorum_unique;
          Alcotest.test_case "action queue basics" `Quick test_action_queue_basics;
          Alcotest.test_case "action queue floor" `Quick test_action_queue_floor;
          Alcotest.test_case "action queue discard" `Quick test_action_queue_discard;
          Alcotest.test_case "torn batch keeps FIFO gap-free" `Quick
            test_persist_torn_batch_fifo_gap_free;
          QCheck_alcotest.to_alcotest prop_persist_recovery_invariants;
          Alcotest.test_case "knowledge exchange at 200 members" `Quick
            test_knowledge_exchange_200_members;
          QCheck_alcotest.to_alcotest prop_knowledge_green_plan_covers;
          QCheck_alcotest.to_alcotest prop_knowledge_red_duties_cover;
          Alcotest.test_case "action queue discard cut" `Quick
            test_action_queue_discard_cut;
        ] );
    ]
