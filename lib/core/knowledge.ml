open Repro_net
open Repro_db
open Types

type t = {
  k_prim : prim_component;
  k_attempt : int;
  k_yellow : yellow;
  k_vulnerable : vulnerable Node_id.Map.t;
  k_green_target : int;
  k_green_plan : (Node_id.t * int * int) list;
  k_green_from : int;
  k_red_targets : int Node_id.Map.t;
}

module Id_tbl = Hashtbl.Make (struct
  type t = Action.Id.t

  let equal = Action.Id.equal
  let hash (id : Action.Id.t) = Hashtbl.hash (id.server, id.index)
end)

(* Keep [reference]'s order, intersect with every other set.  One
   counting table over all the other sets — an id survives iff every
   other set contributed it — so the whole intersection is a single
   O(sum of set sizes) pass with one lookup per reference id, instead
   of one table *per set* and a per-id scan across them. *)
let intersect_ordered reference others =
  match others with
  | [] -> reference
  | _ ->
    let k = List.length others in
    let counts = Id_tbl.create 64 in
    List.iter
      (fun ids ->
        List.iter
          (fun id ->
            let c =
              match Id_tbl.find_opt counts id with Some c -> c | None -> 0
            in
            Id_tbl.replace counts id (c + 1))
          ids)
      others;
    List.filter (fun id -> Id_tbl.find_opt counts id = Some k) reference

(* Array filter without the intermediate list a [List.filter] over
   [Array.to_list] would cons per element. *)
let filter_arr p arr =
  let n = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n arr.(0) in
    let i = ref 0 in
    Array.iter
      (fun x ->
        if p x then begin
          out.(!i) <- x;
          incr i
        end)
      arr;
    out
  end
  [@@analysis.cost "O(members); alloc O(members)"]

(* Steps 3-4 of ComputeKnowledge: vulnerability invalidation.  The
   contradiction test scans [v.v_set] per member — worst-case
   O(members^2), but v_set only holds the participants of an
   in-flight installation attempt, which is empty outside view-change
   churn, and the whole computation runs once per view change, never
   per delivered message. *)
let invalidate_vulnerable ~members vuln_of k_prim =
  let step3 =
    Node_id.Set.fold
      (fun m acc ->
        let v = vuln_of m in
        let v' =
          if not v.v_valid then v
          else begin
            let outside_prim = not (Node_id.Set.mem m k_prim.prim_servers) in
            let contradicted =
              Node_id.Set.exists
                (fun w ->
                  Node_id.Set.mem w members
                  && not (vulnerable_same_attempt (vuln_of w) v))
                v.v_set
            in
            if outside_prim || contradicted then invalid_vulnerable else v
          end
        in
        Node_id.Map.add m v' acc)
      members Node_id.Map.empty
  in
  let union_bits =
    Node_id.Map.fold
      (fun _ v acc ->
        if v.v_valid then Node_id.Set.union acc v.v_bits else acc)
      step3 Node_id.Set.empty
  in
  Node_id.Map.map
    (fun v ->
      if not v.v_valid then v
      else begin
        let bits = Node_id.Set.union v.v_bits union_bits in
        if Node_id.Set.subset v.v_set bits then invalid_vulnerable
        else { v with v_bits = bits }
      end)
    step3
  [@@analysis.cost "O(members); alloc O(members)"]

(* Green retransmission plan: cover positions (from, target] with a
   chain of sources.  A source can serve positions in (its floor, its
   green count]; prefer, at each point, the source reaching furthest
   (lowest id among equals).  Replicas that joined by snapshot, or
   discarded white bodies at a checkpoint, have a non-zero floor, hence
   possibly a multi-source chain.  Where no source goes low enough the
   chain skips to the lowest floor above the gap: members at or above
   that floor are still served, and members inside the gap catch up by
   snapshot instead (see [green_reachable]).  Each chain step strictly
   advances the covered position and scans the members once; chains are
   one or two steps outside snapshot-join scenarios. *)
let green_plan ~from ~target all =
  let rec plan pos acc =
    if pos >= target then List.rev acc
    else begin
      let best =
        Array.fold_left
          (fun best sm ->
            if sm.sm_green_floor <= pos && sm.sm_green_count > pos then
              match best with
              | None -> Some sm
              | Some b ->
                if
                  sm.sm_green_count > b.sm_green_count
                  || (sm.sm_green_count = b.sm_green_count
                     && Node_id.compare sm.sm_server b.sm_server < 0)
                then Some sm
                else best
            else best)
          None all
      in
      match best with
      | Some sm ->
        plan sm.sm_green_count ((sm.sm_server, pos, sm.sm_green_count) :: acc)
      | None -> (
        (* Uncoverable gap above [pos]: resume at the lowest floor that
           still has bodies above it. *)
        let resume =
          Array.fold_left
            (fun lowest sm ->
              if sm.sm_green_floor > pos && sm.sm_green_count > sm.sm_green_floor
              then
                match lowest with
                | Some f when f <= sm.sm_green_floor -> lowest
                | Some _ | None -> Some sm.sm_green_floor
              else lowest)
            None all
        in
        match resume with Some f -> plan f acc | None -> List.rev acc)
    end
  in
  plan from []
  [@@analysis.cost "O(members); alloc O(members)"]

(* Per creator, the maximal red cut any member advertises.  The inner
   fold is over one member's red-cut map (creators it has actions
   from), so the total is the sum of the advertised map sizes. *)
let merge_red_targets all =
  Array.fold_left
    (fun acc sm ->
      Node_id.Map.fold
        (fun creator cut acc ->
          match Node_id.Map.find_opt creator acc with
          | Some best when best >= cut -> acc
          | _ -> Node_id.Map.add creator cut acc)
        sm.sm_red_cut acc)
    Node_id.Map.empty all
  [@@analysis.cost "O(members); alloc O(members)"]

let compute ~members states =
  let state_of m =
    match Node_id.Map.find_opt m states with
    | Some sm -> sm
    | None ->
      invalid_arg
        (Format.asprintf "Knowledge.compute: missing state of %a" Node_id.pp m)
  in
  let all = Array.of_list (List.map state_of (Node_id.Set.elements members)) in
  (* Step 1: maximal primary component; the updated group around it. *)
  let k_prim =
    Array.fold_left
      (fun best sm -> if prim_order sm.sm_prim best > 0 then sm.sm_prim else best)
      (state_of (Node_id.Set.min_elt members)).sm_prim all
  in
  let updated =
    filter_arr (fun sm -> prim_order sm.sm_prim k_prim = 0) all
  in
  let valid_group =
    filter_arr (fun sm -> sm.sm_yellow.y_valid) updated
  in
  let k_attempt =
    Array.fold_left (fun acc sm -> max acc sm.sm_attempt) 0 updated
  in
  (* Step 2: yellow knowledge. *)
  let k_yellow =
    if Array.length valid_group = 0 then invalid_yellow
    else begin
      let first = valid_group.(0) in
      let sets =
        Array.to_list (Array.map (fun sm -> sm.sm_yellow.y_set) valid_group)
      in
      { y_valid = true; y_set = intersect_ordered first.sm_yellow.y_set sets }
    end
  in
  (* Steps 3-4: vulnerability invalidation. *)
  let vuln_of m = (state_of m).sm_vulnerable in
  let k_vulnerable = invalidate_vulnerable ~members vuln_of k_prim in
  (* Retransmission targets. *)
  let k_green_target =
    Array.fold_left (fun acc sm -> max acc sm.sm_green_count) 0 all
  in
  let k_green_from =
    Array.fold_left (fun acc sm -> min acc sm.sm_green_count) max_int all
  in
  let k_green_from = if Array.length all = 0 then 0 else k_green_from in
  let k_green_plan = green_plan ~from:k_green_from ~target:k_green_target all in
  let k_red_targets = merge_red_targets all in
  {
    k_prim;
    k_attempt;
    k_yellow;
    k_vulnerable;
    k_green_target;
    k_green_plan;
    k_green_from;
    k_red_targets;
  }
  [@@analysis.hotpath "O(batch+members+queue)"]

let red_duties ~self ~knowledge ~states =
  let cut_of sm creator =
    match Node_id.Map.find_opt creator sm.sm_red_cut with
    | Some c -> c
    | None -> 0
  in
  Node_id.Map.fold
    (fun creator target acc ->
      let low =
        Node_id.Map.fold (fun _ sm acc -> min acc (cut_of sm creator)) states target
      in
      if target <= low then acc
      else begin
        (* Lowest-id member holding the maximal cut is the duty holder. *)
        let holder =
          Node_id.Map.fold
            (fun m sm best ->
              if cut_of sm creator = target then
                match best with
                | None -> Some m
                | Some b -> if Node_id.compare m b < 0 then Some m else best
              else best)
            states None
        in
        match holder with
        | Some h when Node_id.equal h self -> (creator, low, target) :: acc
        | _ -> acc
      end)
    knowledge.k_red_targets []

let green_reachable knowledge ~green_count =
  let reached =
    List.fold_left
      (fun pos (_, from, upto) -> if from <= pos && upto > pos then upto else pos)
      green_count knowledge.k_green_plan
  in
  reached >= knowledge.k_green_target

let exchange_finished ~green_count ~red_cut knowledge =
  green_count >= knowledge.k_green_target
  && Node_id.Map.for_all
       (fun creator target -> red_cut creator >= target)
       knowledge.k_red_targets
