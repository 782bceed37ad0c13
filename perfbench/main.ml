(* The benchmark driver:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs episodes of one workload until S wall-clock seconds have passed
   (at least [first] of them), checks every episode's outputs, prints
   each metric by name with its unit and sample count, and ends with one
   JSON result line, in which the figures timed on a clock are marked.
   --trace 0 reports the end-to-end metrics; --trace 1 reports the
   per-layer metrics, records spans and writes them to
   .perfbench/trace-NAME-seedN.jsonl.

   Figures in virtual time and per-layer counts come from the first
   [first] episodes only, so they depend on the seed and not on the
   speed of the machine; CPU-time figures are the fastest episode's. *)

open Perfbench_lib
module W = Workloads
module L = Layers

let first = 5

type workload = {
  name : string;
  episode : seed:int -> spans:Span.t -> parent:int -> W.staged;
  layers : seed:int -> spans:Span.t -> parent:int -> (string * float) list;
  mcheck : bool;
}

let forced_1ms =
  { Repro_storage.Disk.default_forced with sync_latency = Repro_sim.Time.of_ms 1. }

let set k v = Repro_db.Action.Update [ Repro_db.Op.Set (k, Repro_db.Value.Int v) ]

let isolated ~gcs ~disk_config ~writers ~kinds ~members ~seed ~spans ~parent =
  L.gcs ~seed ~spans ~parent gcs
  @ L.disk ~seed ~spans ~parent ~config:disk_config ~writers
  @ L.db ~spans ~parent kinds
  @ L.knowledge ~spans ~parent ~members

let workloads =
  let module Net = Repro_net.Network in
  [
    {
      name = "fig5b_delayed";
      episode = W.fig5b;
      layers =
        isolated
          ~gcs:{ L.nodes = 14; net = Net.lan_gigabit; per_member = 1; think_us = 100; churn = false }
          ~disk_config:Repro_storage.Disk.default_delayed ~writers:14
          ~kinds:[ Repro_db.Action.Update [] ] ~members:14;
      mcheck = false;
    };
    {
      name = "overload_2x";
      episode = W.overload;
      layers =
        isolated
          ~gcs:{ L.nodes = 5; net = Net.lan_100mbit; per_member = 8; think_us = 1; churn = false }
          ~disk_config:forced_1ms ~writers:5
          ~kinds:(List.init 64 (fun i -> set (Printf.sprintf "k%d" i) i))
          ~members:5;
      mcheck = false;
    };
    {
      name = "churn_forced";
      episode = W.churn;
      layers =
        isolated
          ~gcs:{ L.nodes = W.churn_nodes; net = Net.lan_gigabit; per_member = 2; think_us = 100; churn = true }
          ~disk_config:forced_1ms ~writers:W.churn_nodes
          ~kinds:
            (List.concat
               (List.init 16 (fun i ->
                    let k = Printf.sprintf "k%d" i in
                    [
                      Repro_db.Action.Update
                        [ Repro_db.Op.Set (k, Repro_db.Value.Int i); Repro_db.Op.Add ("cc1", 1) ];
                      Repro_db.Action.Update
                        [ Repro_db.Op.Add (Printf.sprintf "c%d" i, 1); Repro_db.Op.Add ("cc1", 1) ];
                      Repro_db.Action.Query [ k ];
                    ])))
          ~members:W.churn_nodes;
      mcheck = true;
    };
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map (fun w -> w.name) workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  (w, int "seed", float_of_int (int "seconds"), trace = 1)

let cpu_per_op (e : W.episode) =
  if e.replies = 0 then nan else e.cpu_s *. 1e6 /. float_of_int e.replies

let () =
  let w, seed, seconds, traced = parse () in
  let spans = Span.create ~enabled:traced in
  let t0 = Unix.gettimeofday () in
  (* Traced runs trace the first episodes and time as many or more untraced;
     the difference is the tracing overhead.  Untraced runs measure the
     window of the first episodes only and spend the rest of the time
     setting up more worlds, to time set-up on more samples. *)
  let rec loop root i acc setups =
    let enough = i >= first && Unix.gettimeofday () -. t0 >= seconds in
    let need_untraced = traced && i < 2 * first in
    if enough && not need_untraced then (List.rev acc, List.rev setups)
    else begin
      let recording = if i < first then spans else Span.create ~enabled:false in
      let setup_s, e =
        Span.wall recording ~parent:root (Printf.sprintf "episode-%d" i) (fun parent ->
            let st = w.episode ~seed:((seed * 1000) + i) ~spans:recording ~parent in
            (st.W.setup_s, if i < first || traced then Some (st.W.window ()) else None))
      in
      loop root (i + 1) (Option.fold ~none:acc ~some:(fun e -> e :: acc) e) (setup_s :: setups)
    end
  in
  let (episodes, setups), mc, iso =
    Span.wall spans w.name (fun root ->
        let episodes = loop root 0 [] [] in
        let mc = if w.mcheck then Some (W.mcheck spans ~parent:root) else None in
        let iso =
          if not traced then []
          else
            Span.wall spans ~parent:root "isolated" (fun parent ->
                w.layers ~seed ~spans ~parent)
        in
        (episodes, mc, iso))
  in
  let counted = List.filteri (fun i _ -> i < first) episodes in
  let violations =
    List.concat_map (fun (e : W.episode) -> e.violations) episodes
    @ (match mc with Some m when not m.W.m_ok -> [ "mcheck: counterexample or incomplete search" ] | _ -> [])
  in
  let attempted = List.fold_left (fun a (e : W.episode) -> a + e.acct.attempted) 0 counted in
  let failed = List.fold_left (fun a (e : W.episode) -> a + e.acct.failed) 0 counted in
  let med f l = Report.median (List.map f l) in
  let fastest f l = Report.fastest (List.map f l) in
  let pooled =
    let a = Array.concat (List.map (fun (e : W.episode) -> e.acct.latencies) counted) in
    Array.sort Float.compare a;
    a
  in
  let pct name p =
    match Report.percentile pooled p with
    | Some x ->
      Report.metric ~samples:x.p_samples
        ~note:(Printf.sprintf "p%.2f" x.p_rank)
        name "ms" x.p_value
    | None -> Report.metric name "ms" nan
  in
  let untraced = if traced then List.filteri (fun i _ -> i >= first) episodes else episodes in
  let window_s (e : W.episode) = e.window_ms /. 1e3 in
  let metrics =
    if not traced then
      [
        (* Every episode sets a world up again; like the other CPU
           figures, the fastest set-up is the one least disturbed. *)
        Report.metric ~samples:(List.length setups) ~note:"fastest" "setup_s" "s"
          (Report.fastest setups);
        Report.metric ~samples:attempted "goodput_per_s" "1/s"
          (med (fun (e : W.episode) -> float_of_int e.acct.good /. window_s e) counted);
        pct "latency_p50_ms" 50.;
        (match Report.tail_mean pooled ~share:0.01 with
        | Some (v, k) ->
          Report.metric ~samples:(Array.length pooled)
            ~note:(Printf.sprintf "mean of the slowest %d" k)
            "latency_tail_ms" "ms" v
        | None -> Report.metric "latency_tail_ms" "ms" nan);
        Report.metric ~samples:(List.length counted) "live_heap_mb" "MB"
          (med (fun (e : W.episode) -> e.live_mb) counted);
      ]
    else begin
      (* Medians over the counted episodes, except for defect counts,
         which are totals: one bad episode must show. *)
      let stack =
        List.map
          (fun (k, _) ->
            let values = List.map (fun (e : W.episode) -> List.assoc k e.layer) counted in
            (k, if List.mem k Report.totals then List.fold_left ( +. ) 0. values
                else Report.median values))
          (List.hd counted).W.layer
      in
      let mcheck_layer =
        match mc with
        | Some m -> m.W.m_layer
        | None ->
          (* The model check runs on churn_forced only. *)
          List.filter_map
            (fun (k, _) ->
              if String.starts_with ~prefix:"mcheck." k then Some (k, 0.) else None)
            Report.per_layer
      in
      let cpu_us_per_op = fastest cpu_per_op untraced in
      let check_cpu_s =
        fastest (fun (e : W.episode) -> e.check_cpu_s) episodes
        +. match mc with Some m -> m.W.m_cpu_s | None -> 0.
      in
      let all =
        stack @ iso @ mcheck_layer
        @ [ ("sim.cpu_us_per_op", cpu_us_per_op);
            ("check.cpu_s", check_cpu_s);
            ("trace.overhead_cpu_us_per_op", fastest cpu_per_op counted -. cpu_us_per_op);
            ("trace.spans", float_of_int (Span.count spans)) ]
      in
      List.map
        (fun (k, u) ->
          match List.assoc_opt k all with
          | Some v -> Report.metric k u v
          | None -> Report.metric k u nan)
        Report.per_layer
    end
  in
  let expected = if traced then Report.per_layer else Report.end_to_end in
  let problems =
    Report.check_metrics metrics
    @ List.filter_map
        (fun (k, _) ->
          if List.exists (fun (m : Report.metric) -> m.name = k) metrics then None
          else Some ("missing metric " ^ k))
        expected
  in
  Printf.printf "workload %s seed %d: %d set-ups, %d windows (%d in the virtual-time figures)\n"
    w.name seed (List.length setups) (List.length episodes) (List.length counted);
  Printf.printf "  set-up CPU: fastest %.4f s, median %.4f s\n" (Report.fastest setups)
    (Report.median setups);
  List.iteri
    (fun i (e : W.episode) ->
      Printf.printf "  window %d: cpu %.4f s, %d replies, %.2f us/op, check %.4f s\n"
        i e.cpu_s e.replies (cpu_per_op e) e.check_cpu_s)
    episodes;
  List.iter (fun (m : Report.metric) -> print_endline (Report.table_line m)) metrics;
  (* Known defects counted, not gated, show in the timed run too. *)
  if not traced then
    List.iter
      (fun k ->
        let total =
          List.fold_left
            (fun a (e : W.episode) -> a +. List.assoc k e.layer)
            0. counted
        in
        Printf.printf "%-32s %16s (not gated; a total over the counted episodes)\n" k
          (Report.number total))
      Report.totals;
  if traced then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/trace-%s-seed%d.jsonl" w.name seed in
    Span.write spans path;
    Printf.printf "spans: %d written to %s\n" (Span.count spans) path
  end;
  List.iter (fun v -> prerr_endline ("violation: " ^ v)) violations;
  List.iter (fun p -> prerr_endline ("metric: " ^ p)) problems;
  let correct = violations = [] && problems = [] in
  if correct then begin
    print_endline (Report.result_json ~mark_clock:true ~correct ~attempted ~failed metrics);
    exit 0
  end
  else begin
    print_endline (Report.result_json ~correct ~attempted ~failed []);
    exit 1
  end
