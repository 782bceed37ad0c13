(* Layers the full stack hides, driven on their own at a workload's size
   and configuration and timed around their public calls: an Endpoint
   group over a Network (the gcs and net metrics), a Disk (storage.force_p50_ms),
   the Executor over a Database (db.cpu_ns_per_apply) and
   Knowledge.compute (core.knowledge_cpu_us). *)

module Sim = Repro_sim
module Disk = Repro_storage.Disk
module Network = Repro_net.Network
module Topology = Repro_net.Topology
module Node_id = Repro_net.Node_id
module Endpoint = Repro_gcs.Endpoint
module Params = Repro_gcs.Params
module Action = Repro_db.Action
module Types = Repro_core.Types
module Knowledge = Repro_core.Knowledge

let cpu () = Sys.time ()
let now_ms sim = Sim.Time.to_ms (Sim.Engine.now sim)

let pct sorted p =
  match Report.percentile sorted p with Some x -> x.Report.p_value | None -> 0.

let sorted_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

type gcs_config = {
  nodes : int;
  net : Network.config;
  per_member : int;  (** messages each member keeps in flight *)
  think_us : int;  (** seeded pause before a member's next send *)
  churn : bool;  (** run churn_forced's partition/crash schedule *)
}

(* A closed loop of 200-byte Safe sends: each member keeps [per_member]
   messages in flight and sends the next once it delivers its own.
   Latency is send to the sender's own safe delivery.  Sends a view
   change swallowed are re-issued when the member's next regular view
   installs. *)
let gcs ~seed ~spans ~parent cfg =
  let sim = Sim.Engine.create ~seed () in
  let rng = Sim.Rng.of_int (seed + 2) in
  let nodes = List.init cfg.nodes Fun.id in
  let topology = Topology.create ~nodes in
  let network = Network.create ~engine:sim ~topology ~config:cfg.net () in
  List.iter (fun n -> Network.attach_cpu network n (Sim.Resource.create sim)) nodes;
  let sent_at : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let mine = Array.make cfg.nodes [] in
  let next_id = ref 0 in
  let measuring = ref false and lats = ref [] in
  let eps = Array.make cfg.nodes None in
  let rec send node =
    match eps.(node) with
    | None -> ()
    | Some ep ->
      incr next_id;
      let id = !next_id in
      Hashtbl.replace sent_at id (now_ms sim);
      mine.(node) <- id :: mine.(node);
      Endpoint.send ep ~service:Endpoint.Safe ~size:200 id
  and on_event node ev =
    match ev with
    | Endpoint.Deliver d when Node_id.equal d.Endpoint.sender node -> (
      match Hashtbl.find_opt sent_at d.Endpoint.payload with
      | None -> ()
      | Some t0 ->
        Hashtbl.remove sent_at d.Endpoint.payload;
        mine.(node) <- List.filter (fun i -> i <> d.Endpoint.payload) mine.(node);
        let t1 = now_ms sim in
        if !measuring then begin
          lats := (t1 -. t0) :: !lats;
          ignore
            (Span.record spans ~parent
               ~key:(Printf.sprintf "msg-%d" d.Endpoint.payload)
               ~clock:Span.Virtual ~start:t0 ~stop:t1 "gcs.safe_delivery")
        end;
        ignore
          (Sim.Engine.schedule sim
             ~delay:(Sim.Time.of_us (Sim.Rng.int rng (max 1 cfg.think_us)))
             (fun () -> send node)))
    | Endpoint.Reg_conf _ when !measuring ->
      (* Re-issue whatever the view change may have swallowed. *)
      let lost = mine.(node) in
      mine.(node) <- [];
      List.iter
        (fun id ->
          Hashtbl.remove sent_at id;
          send node)
        lost
    | Endpoint.Deliver _ | Endpoint.Trans_conf _ | Endpoint.Reg_conf _ -> ()
  in
  List.iter
    (fun node ->
      eps.(node) <-
        Some
          (Endpoint.create ~network ~params:Params.default ~node
             ~on_event:(on_event node) ()))
    nodes;
  let ep n = Option.get eps.(n) in
  List.iter (fun n -> Endpoint.join (ep n)) nodes;
  Sim.Engine.run ~until:(Sim.Time.of_ms 1_000.) sim;
  measuring := true;
  List.iter
    (fun n ->
      for _ = 1 to cfg.per_member do
        send n
      done)
    nodes;
  Sim.Engine.run ~until:(Sim.Time.of_ms 1_200.) sim;
  let m0 = Network.messages_sent network
  and b0 = Network.bytes_sent network
  and d0 = Network.messages_dropped network in
  lats := [];
  let w0 = now_ms sim in
  let c0 = cpu () in
  let at ms f = Sim.Engine.run ~until:(Sim.Time.of_ms (w0 +. ms)) sim; f () in
  if cfg.churn then begin
    at 300. (fun () -> Topology.partition topology [ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ] ]);
    at 900. (fun () -> Topology.merge_all topology);
    at 1_500. (fun () ->
        Network.set_up network Workloads.victim false;
        Endpoint.crash (ep Workloads.victim));
    at 2_100. (fun () ->
        Network.set_up network Workloads.victim true;
        Endpoint.recover (ep Workloads.victim))
  end;
  at 3_000. ignore;
  let cpu_s = cpu () -. c0 in
  let ops = List.length !lats in
  let per_op x = if ops = 0 then 0. else float_of_int x /. float_of_int ops in
  let sent = Network.messages_sent network - m0 in
  let sorted = sorted_of !lats in
  [
    ("net.msgs_per_op", per_op sent);
    ("net.bytes_per_op", per_op (Network.bytes_sent network - b0));
    ( "net.dropped_ratio",
      if sent = 0 then 0.
      else float_of_int (Network.messages_dropped network - d0) /. float_of_int sent );
    ("gcs.safe_p50_ms", pct sorted 50.);
    ("gcs.safe_p99_ms", pct sorted 99.);
    ("gcs.cpu_us_per_delivery", if ops = 0 then 0. else cpu_s *. 1e6 /. float_of_int ops);
    ( "gcs.views_installed",
      float_of_int (List.fold_left (fun acc n -> acc + Endpoint.installed_count (ep n)) 0 nodes) );
  ]

(* [writers] closed-loop forcers on one device: write, force, repeat. *)
let disk ~seed ~spans ~parent ~config ~writers =
  let sim = Sim.Engine.create ~seed () in
  let d = Disk.create ~engine:sim ~config () in
  let lats = ref [] in
  let rec writer () =
    let t0 = now_ms sim in
    ignore (Disk.note_write d);
    Disk.force d (fun () ->
        let t1 = now_ms sim in
        lats := (t1 -. t0) :: !lats;
        ignore
          (Span.record spans ~parent ~clock:Span.Virtual ~start:t0 ~stop:t1
             "storage.force");
        writer ())
  in
  for _ = 1 to writers do
    writer ()
  done;
  Sim.Engine.run ~until:(Sim.Time.of_ms 200.) sim;
  [ ("storage.force_p50_ms", pct (sorted_of !lats) 50.) ]

(* CPU ns per Executor.execute over the workload's action mix. *)
let db ~spans ~parent kinds =
  let procs = Repro_db.Procedure.builtins () in
  let db = Repro_db.Database.create () in
  let actions =
    Array.of_list
      (List.mapi (fun i kind -> Action.make ~server:0 ~index:(i + 1) kind) kinds)
  in
  let rounds = 200_000 in
  let n = Array.length actions in
  let times =
    List.init 5 (fun _ ->
        Span.wall spans ~parent "db.apply" (fun _ ->
            let c0 = cpu () in
            for i = 0 to (rounds / 5) - 1 do
              ignore (Repro_db.Executor.execute ~procs db actions.(i mod n))
            done;
            (cpu () -. c0) *. 1e9 /. float_of_int (rounds / 5)))
  in
  [ ("db.cpu_ns_per_apply", Report.median times) ]

(* CPU us per Knowledge.compute for an exchange among [members]
   servers, each advertising a 64-action yellow prefix. *)
let knowledge ~spans ~parent ~members:n =
  let ids = List.init n Fun.id in
  let members = Node_id.set_of_list ids in
  let prim = Types.initial_prim ~servers:members in
  let yellow len = List.init len (fun i -> { Action.Id.server = 0; index = i + 1 }) in
  let states =
    List.fold_left
      (fun m s ->
        Node_id.Map.add s
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
            sm_yellow = { Types.y_valid = true; y_set = yellow (64 + (s mod 5)) };
          }
          m)
      Node_id.Map.empty ids
  in
  let reps = 2_000 in
  let times =
    List.init 5 (fun _ ->
        Span.wall spans ~parent "core.knowledge" (fun _ ->
            let c0 = cpu () in
            for _ = 1 to reps do
              ignore (Knowledge.compute ~members states)
            done;
            (cpu () -. c0) *. 1e6 /. float_of_int reps))
  in
  [ ("core.knowledge_cpu_us", Report.median times) ]
