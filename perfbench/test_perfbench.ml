(* Tests of the benchmark's own rules: the percentile rule, failure
   accounting, the metric-name grammar, output ordering, and that one
   seed always yields the same virtual-time figures. *)

open Perfbench_lib

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

(* Position of [sub] in [s], or -1. *)
let index s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go 0

let test_percentile () =
  Alcotest.(check bool) "ten samples: no rank has ten beyond it" true
    (Report.percentile (sorted 10) 50. = None);
  (match Report.percentile (sorted 11) 50. with
  | Some p ->
    Alcotest.(check (float 0.)) "eleven samples: capped at the first" 1. p.p_value;
    Alcotest.(check int) "sample count" 11 p.p_samples
  | None -> Alcotest.fail "eleven samples must give a rank");
  (match Report.percentile (sorted 100) 99. with
  | Some p ->
    Alcotest.(check (float 0.)) "p99 of 100 falls back to p90" 90. p.p_value;
    Alcotest.(check (float 1e-9)) "reported rank" 90. p.p_rank
  | None -> Alcotest.fail "100 samples must give a rank");
  match Report.percentile (sorted 2000) 99. with
  | Some p ->
    Alcotest.(check (float 0.)) "p99 of 2000" 1980. p.p_value;
    Alcotest.(check (float 1e-9)) "full rank" 99. p.p_rank;
    Alcotest.(check bool) "the count is printed" true
      (index
         (Report.table_line (Report.metric ~samples:p.p_samples "x" "ms" p.p_value))
         "n=2000"
      >= 0)
  | None -> Alcotest.fail "2000 samples must give a rank"

let test_tail_mean () =
  Alcotest.(check bool) "nine samples: too few" true
    (Report.tail_mean (sorted 9) ~share:0.01 = None);
  Alcotest.(check (option (pair (float 1e-9) int))) "at least ten samples"
    (Some (95.5, 10)) (Report.tail_mean (sorted 100) ~share:0.01);
  Alcotest.(check (option (pair (float 1e-9) int))) "the slowest 1%"
    (Some (1990.5, 20)) (Report.tail_mean (sorted 2000) ~share:0.01)

let test_failed_ratio () =
  let r issued_ms outcome = { Report.issued_ms; outcome } in
  let requests =
    [
      r 1. (Report.Replied 5.);  (* good *)
      r 2. (Report.Replied 1_500.);  (* past the 1 s limit *)
      r 3. Report.Shed;  (* refused by admission *)
      r 4. Report.Aborted;
      r 5. Report.Pending;  (* never answered *)
      r 6. (Report.Replied 1_006.);  (* exactly at the limit: good *)
      r 100. (Report.Replied 101.);  (* issued after the window *)
    ]
  in
  let a = Report.account ~limit_ms:1_000. ~from:0. ~until:100. requests in
  Alcotest.(check int) "attempted" 6 a.attempted;
  Alcotest.(check int) "good" 2 a.good;
  Alcotest.(check int) "failed: late, shed, aborted, unanswered" 4 a.failed;
  Alcotest.(check (array (float 1e-9))) "latencies of answered requests"
    [| 4.; 1_000.; 1_498. |] a.latencies

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Report.valid_name n))
    [ "setup_s"; "sim.events_per_op"; "a-b.c_d"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Report.valid_name n))
    [ ""; ".lead"; "_lead"; "has space"; "semi;colon"; "slash/no"; String.make 65 'a' ];
  let all = Report.end_to_end @ Report.per_layer in
  let problems =
    Report.check_metrics (List.map (fun (n, u) -> Report.metric n u 1.) all)
  in
  Alcotest.(check (list string)) "the benchmark's own metrics" [] problems;
  Alcotest.(check (list string)) "duplicates are refused"
    [ "duplicate metric x" ]
    (Report.check_metrics [ Report.metric "x" "s" 1.; Report.metric "x" "s" 2. ]);
  Alcotest.(check bool) "setup_s is end-to-end" true
    (List.mem_assoc "setup_s" Report.end_to_end)

let test_ordering () =
  let ms = List.map (fun (n, u) -> Report.metric n u 1.5) Report.end_to_end in
  let line = Report.result_json ~correct:true ~attempted:3 ~failed:1 ms in
  let positions =
    List.map (fun (n, _) -> index line ("\"" ^ n ^ "\"")) Report.end_to_end
  in
  Alcotest.(check bool) "metrics appear in the declared order" true
    (positions = List.sort Int.compare positions && not (List.mem (-1) positions));
  Alcotest.(check string) "same input, same bytes" line
    (Report.result_json ~correct:true ~attempted:3 ~failed:1 ms);
  Alcotest.(check string) "numbers keep every digit" "0.10000000000000001"
    (Report.number 0.1);
  let marked = Report.result_json ~mark_clock:true ~correct:true ~attempted:3 ~failed:1 ms in
  Alcotest.(check bool) "set-up time is marked as timed on a clock" true
    (index marked "\"setup_s\": {\"value\": 1.5, \"unit\": \"s\", \"clock\": true}" >= 0);
  Alcotest.(check bool) "only the clocked figures are marked" true
    (index marked "\"goodput_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}" >= 0)

(* Everything an episode reports in virtual time, rendered. *)
let virtual_figures (e : Workloads.episode) =
  let a = e.acct in
  Printf.sprintf "%d %d %d %d [%s] %s" a.attempted a.good a.failed e.replies
    (String.concat ";" (Array.to_list (Array.map Report.number a.latencies)))
    (String.concat ";"
       (List.filter_map
          (fun (k, v) ->
            if List.mem k Report.clocked then None
            else Some (k ^ "=" ^ Report.number v))
          e.layer))

let test_determinism episode () =
  let run seed =
    virtual_figures ((episode ~seed ~spans:(Span.create ~enabled:false) ~parent:0).Workloads.window ())
  in
  let a = run 5 in
  Alcotest.(check string) "same seed, identical figures" a (run 5);
  Alcotest.(check bool) "another seed, other figures" true (a <> run 6)

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile;
          Alcotest.test_case "tail mean" `Quick test_tail_mean;
          Alcotest.test_case "failed accounting" `Quick test_failed_ratio;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "output ordering" `Quick test_ordering;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "overload_2x" `Slow (test_determinism Workloads.overload);
          Alcotest.test_case "churn_forced" `Slow (test_determinism Workloads.churn);
        ] );
    ]
