let all =
  [
    Exp_motivation.fig2;
    Exp_motivation.fig3;
    Exp_motivation.fig4;
    Exp_motivation.fig5;
    Exp_motivation.fig6;
    Exp_cp.fig11;
    Exp_dp.fig12;
    Exp_dp.fig13;
    Exp_dp.table5;
    Exp_dp.fig14;
    Exp_dp.fig15;
    Exp_dp.fig16;
    Exp_cp.fig17;
    Exp_compare.table1;
    Exp_compare.table2;
    Exp_dp.sec8;
    Exp_ablations.ablations;
    Exp_chaos.chaos;
    Exp_overload.overload;
    Exp_multitenant.multitenant;
    Exp_churn.churn;
    Exp_fleet.fleet;
  ]

let find name = List.find_opt (fun d -> Exp_desc.name d = name) all

type narrowing = {
  flag : string;
  experiment : string;
  doc : string;
  values : (string * (Exp_desc.cell -> bool)) list;
}

let on_off filter = [ ("on", filter true); ("off", filter false) ]
let named filter = List.map (fun v -> (v, filter v))
let narrowing flag experiment values ~doc = { flag; experiment; doc; values }

let narrowings =
  [
    narrowing "chaos-profile" "chaos"
      (named Exp_chaos.profile_filter Exp_chaos.profile_names)
      ~doc:"Restrict the chaos experiment to one fault profile.";
    narrowing "overload" "overload"
      (on_off Exp_overload.governor_filter)
      ~doc:"Restrict the overload experiment to one governor setting.";
    narrowing "aggressor" "multitenant"
      (on_off Exp_multitenant.aggressor_filter)
      ~doc:
        "Restrict the multitenant experiment to the aggressor ($(b,on): CP \
         storm / DP burst cells) or contention-only ($(b,off): saturation / \
         idle cells) half of the grid.";
    narrowing "churn-profile" "churn"
      (named Exp_churn.profile_filter Exp_churn.profile_names)
      ~doc:
        "Restrict the churn experiment to one churn profile ($(b,steady): \
         arrival waves and forced departure, $(b,flap): thrash / refusal / \
         determinism repeat, $(b,chaos): chaos-under-churn).";
    narrowing "nics" "fleet"
      (List.map
         (fun n -> (string_of_int n, Exp_fleet.nics_filter n))
         Exp_fleet.nic_counts)
      ~doc:
        "Restrict the fleet experiment to the cells whose rack is this many \
         NICs wide (the determinism repeat rides with the 8-NIC cells).";
    narrowing "failover" "fleet"
      (on_off Exp_fleet.failover_filter)
      ~doc:"Restrict the fleet experiment to one failover setting.";
  ]

type chosen = (narrowing * (Exp_desc.cell -> bool)) list

let filter_for chosen desc cell =
  List.for_all
    (fun (n, keep) -> n.experiment <> Exp_desc.name desc || keep cell)
    chosen

let refusal chosen name =
  match
    List.find_opt (fun (n, _) -> name <> "all" && n.experiment <> name) chosen
  with
  | Some (n, _) ->
      Some
        (Printf.sprintf "--%s narrows the %s experiment; %s does not take it"
           n.flag n.experiment name)
  | None ->
      List.find_map
        (fun (n, _) ->
          let desc = Option.get (find n.experiment) in
          if List.exists (filter_for chosen desc) (Exp_desc.cells desc) then
            None
          else
            Some
              (Printf.sprintf "the narrowing flags leave %s no cell to run"
                 n.experiment))
        chosen

(* Edit distance for "did you mean" suggestions on a typoed experiment
   name — the registry is tiny, so the O(n*m) textbook recurrence is
   plenty. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        min
          (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
          (d.(i - 1).(j - 1) + cost)
    done
  done;
  d.(la).(lb)

let closest name =
  let scored =
    List.map
      (fun d ->
        ( edit_distance name (Exp_desc.name d),
          (Exp_desc.name d, Exp_desc.cell_count d) ))
      all
  in
  match List.sort compare scored with
  | (dist, candidate) :: _ when dist <= 3 -> Some candidate
  | _ -> None
