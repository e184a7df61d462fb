module Pipeline = Owp_core.Pipeline
module Theory = Owp_core.Theory
module BM = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let instance seed =
  let rng = Prng.create seed in
  let g = Gen.gnm rng ~n:60 ~m:200 in
  Preference.random rng g ~quota:(Preference.uniform_quota g 3)

(* seed 7 was the removed wrapper's default; the expectations below
   were calibrated against it *)
let run ?(seed = 7) engine prefs =
  Pipeline.run_config (Owp_core.Run_config.make ~engine ~seed ()) prefs

let test_lid_outcome_fields () =
  let prefs = instance 1 in
  let out = run Pipeline.Lid prefs in
  Alcotest.(check bool) "messages present" true (out.Pipeline.messages <> None);
  (match out.Pipeline.guarantee with
  | Some gbound ->
      Alcotest.(check (float 1e-9)) "theorem 3 bound"
        (Theory.theorem3_bound ~bmax:(Preference.max_quota prefs))
        gbound
  | None -> Alcotest.fail "LID carries a guarantee");
  Alcotest.(check bool) "weight consistent" true
    (Float.abs
       (out.Pipeline.total_weight
       -. BM.weight out.Pipeline.matching (Pipeline.weights prefs))
    < 1e-9)

let test_algorithms_consistent () =
  let prefs = instance 2 in
  let lid = run Pipeline.Lid prefs in
  let lic = run Pipeline.Lic prefs in
  Alcotest.(check bool) "same matching" true
    (BM.equal lid.Pipeline.matching lic.Pipeline.matching);
  Alcotest.(check (float 1e-9)) "same satisfaction" lic.Pipeline.total_satisfaction
    lid.Pipeline.total_satisfaction;
  Alcotest.(check bool) "greedy has no guarantee field" true
    ((run Pipeline.Greedy prefs).Pipeline.guarantee = None)

let test_profile_matches_total () =
  let prefs = instance 3 in
  let out = run Pipeline.Lic prefs in
  let profile = Pipeline.satisfaction_profile prefs out.Pipeline.matching in
  let total = Array.fold_left ( +. ) 0.0 profile in
  Alcotest.(check (float 1e-6)) "profile sums to total" out.Pipeline.total_satisfaction total

let test_satisfaction_vs_guarantee () =
  (* the realised satisfaction ratio vs the satisfaction-greedy upper
     bound proxy is far above the proven floor; sanity-check mean *)
  let prefs = instance 4 in
  let out = run Pipeline.Lid prefs in
  Alcotest.(check bool) "mean in [0,1]" true
    (out.Pipeline.mean_satisfaction >= 0.0 && out.Pipeline.mean_satisfaction <= 1.0)

(* the profile's single-pass partner lists must not move a single bit
   against the per-node form it replaced *)
let prop_profile_bit_identical =
  QCheck2.Test.make ~name:"satisfaction_profile = per-node satisfaction, bit for bit"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.gnm rng ~n ~m:(min (n * (n - 1) / 2) (2 * n)) in
      let prefs = Preference.random rng g ~quota:(Preference.uniform_quota g 3) in
      let capacity = Array.init n (Preference.quota prefs) in
      let m = Test_bmatching.random_matching rng g ~capacity in
      let bits = Array.map Int64.bits_of_float in
      bits (Pipeline.satisfaction_profile prefs m)
      = bits
          (Array.init n (fun i -> Preference.satisfaction prefs i (BM.connections m i))))

let suite =
  [
    Alcotest.test_case "lid outcome fields" `Quick test_lid_outcome_fields;
    Alcotest.test_case "algorithms consistent" `Quick test_algorithms_consistent;
    Alcotest.test_case "profile matches total" `Quick test_profile_matches_total;
    Alcotest.test_case "satisfaction vs guarantee" `Quick test_satisfaction_vs_guarantee;
    QCheck_alcotest.to_alcotest prop_profile_bit_identical;
  ]
