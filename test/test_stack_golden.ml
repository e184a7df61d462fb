(* Golden report fingerprints of Stack.run.

   Each entry runs one layer composition on one seeded instance and
   digests the whole Stack.report: edge ids, participation, every
   scalar counter, every layer counter row, the completion time (hex
   float, so exact), the quiescence and damage findings and the cutoff.
   The expected digests were recorded from the stack as it stood before
   its hot path was rebuilt (tuple-keyed dedup tables, event-list LID
   driver, a claim computed for every PROP); every later stack must
   reproduce them byte for byte.  They are the oracle that keeps the
   bit-identity claims checkable once Lid.run is gone.

   The runs are E28's six compositions at three instance seeds, plus
   runs that reach the stack's rarer paths: channel duplicates into the
   dedup layer, a [down:] crash-restart episode whose retired-node REJ
   broadcast hits dedup, and a state-violator's PROP to a stranger (the
   non-edge dedup fallback), unguarded and guarded. *)

module Stack = Owp_core.Stack
module BM = Owp_matching.Bmatching
module Sim = Owp_simnet.Simnet
module Schedule = Owp_simnet.Schedule
module Adversary = Owp_simnet.Adversary
module Violation = Owp_check.Violation
module Workloads = Owp_bench.Workloads
module E28 = Owp_bench.E28_wheel

let render (r : Stack.report) =
  let b = Buffer.create 4096 in
  let int k v = Printf.bprintf b "%s=%d\n" k v in
  let ints k l =
    Printf.bprintf b "%s=[%s]\n" k (String.concat "," (List.map string_of_int l))
  in
  let bools k a =
    Printf.bprintf b "%s=%s\n" k
      (String.init (Array.length a) (fun i -> if a.(i) then '1' else '0'))
  in
  let violations k l =
    Printf.bprintf b "%s:\n" k;
    List.iter (fun v -> Printf.bprintf b "  %s\n" (Violation.to_string v)) l
  in
  ints "edges" (BM.edge_ids r.Stack.matching);
  bools "correct" r.Stack.correct;
  bools "participating" r.Stack.participating;
  int "byz" r.Stack.byz_count;
  int "prop" r.Stack.prop_count;
  int "rej" r.Stack.rej_count;
  int "adversary-msgs" r.Stack.adversary_msgs;
  int "delivered" r.Stack.delivered;
  int "dropped" r.Stack.dropped;
  int "reordered" r.Stack.reordered;
  int "lost-to-crashes" r.Stack.lost_to_crashes;
  int "synthetic-rej" r.Stack.synthetic_rejects;
  int "quarantines" r.Stack.quarantine_events;
  int "false-quarantines" r.Stack.false_quarantines;
  int "byz-offenders" r.Stack.byz_offenders;
  int "byz-quarantined" r.Stack.byz_quarantined;
  List.iter (fun (k, c) -> int ("offence " ^ k) c) r.Stack.offence_counts;
  int "wasted" r.Stack.wasted_slots;
  int "quiet-rounds" r.Stack.quiet_rounds;
  Printf.bprintf b "completion=%h\n" r.Stack.completion_time;
  Printf.bprintf b "terminated=%b\n" r.Stack.all_terminated;
  ints "unterminated" r.Stack.unterminated;
  violations "quiescence" r.Stack.quiescence;
  violations "damage" r.Stack.damage;
  (match r.Stack.cutoff with
  | None -> Buffer.add_string b "cutoff=none\n"
  | Some c ->
      Printf.bprintf b "cutoff=%h released=%d half-locks=%d abandoned=%d\n"
        c.Stack.cut_at c.Stack.released c.Stack.half_locks c.Stack.abandoned);
  List.iter
    (fun { Stack.layer; counters } ->
      Printf.bprintf b "[%s]" layer;
      List.iter (fun (k, c) -> Printf.bprintf b " %s=%d" k c) counters;
      Buffer.add_char b '\n')
    r.Stack.layers;
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (render r))

let instance seed =
  Workloads.make ~seed ~family:(Workloads.Gnm_avg_deg 6.0)
    ~pref_model:Workloads.Random_prefs ~n:150 ~quota:3

let adversaries ~seed ~n spec =
  Adversary.assign (Owp_util.Prng.create seed) ~n (Adversary.parse_spec spec)

(* the rare-path runs, each on the seed-28 instance *)
let extras =
  let inst = instance 28 in
  let w = inst.Workloads.weights and capacity = inst.Workloads.capacity in
  let prefs = inst.Workloads.prefs in
  let n = Graph.node_count inst.Workloads.graph in
  [
    ( "datagram duplicates",
      fun () ->
        Stack.run ~seed:5 ~faults:(Sim.faults ~duplicate:0.3 ()) w ~capacity );
    ( "ARQ over duplicates and reordering",
      fun () ->
        Stack.run ~seed:6 ~fifo:false
          ~faults:(Sim.faults ~drop:0.05 ~duplicate:0.2 ~reorder:0.2 ())
          ~reliable:true w ~capacity );
    ( "down: crash-restart episode",
      fun () ->
        Stack.run ~seed:7 ~reliable:true
          ~schedule:[ { Schedule.from_ = 1.0; until = 6.0; what = Schedule.Down [ 2; 5 ] } ]
          w ~capacity );
    ( "unguarded state violators",
      fun () ->
        Stack.run ~seed:8 ~adversaries:(adversaries ~seed:8 ~n "violator:0.2") ~prefs w
          ~capacity );
    ( "guarded state violators",
      fun () ->
        Stack.run ~seed:9 ~adversaries:(adversaries ~seed:9 ~n "violator:0.2")
          ~guard:true ~prefs w ~capacity );
    ( "patience detector with claims",
      fun () -> Stack.run ~seed:10 ~patience:6.0 ~prefs w ~capacity );
  ]

let runs =
  List.concat_map
    (fun seed ->
      let inst = instance seed in
      List.map
        (fun (c : E28.composition) ->
          ( Printf.sprintf "%s @ seed %d" c.E28.label seed,
            fun () -> c.E28.exec ~sim_shards:1 ~unsafe_lookahead:false inst ))
        E28.compositions)
    [ 28; 29; 30 ]
  @ extras

let golden =
  [
    ("plain LID @ seed 28", "d7072c7e04c028d85b61d87c92c31322");
    ("channel faults, no FIFO @ seed 28", "b5b5a333a1ff0ddff8f1960abbd5a59d");
    ("ARQ + scheduled weather @ seed 28", "74b48bb4be5ffdaeff15df7e6584636d");
    ("guarded liars @ seed 28", "004cec063a7a29caea491e9660bdf9c3");
    ("anytime budget @ seed 28", "c7dd37dcc0464007e8fc571dc19bb2ea");
    ("all layers at once @ seed 28", "e085e01d2efc003c81265257a7dce59f");
    ("plain LID @ seed 29", "fc33ba67bd55bb67be4c4a535dbc3867");
    ("channel faults, no FIFO @ seed 29", "30cfd21aae544826b29dbf9d1c99b3dc");
    ("ARQ + scheduled weather @ seed 29", "89d6a96f56b4d420a4013339eb80657a");
    ("guarded liars @ seed 29", "a2cf91c76e97779fcc74f7f89ca9378e");
    ("anytime budget @ seed 29", "aa9c3a9b6b950dba4dea8b459803d828");
    ("all layers at once @ seed 29", "4e06237038e00c7e92c6dd9f44455448");
    ("plain LID @ seed 30", "a8382be0a5cda5b17423e41be4855927");
    ("channel faults, no FIFO @ seed 30", "83e91e9f7adc4e5e28b1db9bf6cc70ca");
    ("ARQ + scheduled weather @ seed 30", "240ce35940097f5827c487361c2fa481");
    ("guarded liars @ seed 30", "1a7a5e96584542844162f4795bea89df");
    ("anytime budget @ seed 30", "ce50322199ab0675d3bd1a351ae0b3cc");
    ("all layers at once @ seed 30", "36b6341bedc84ef0c631a3293d35fde1");
    ("datagram duplicates", "477092eb1bc60c336c804005616b5433");
    ("ARQ over duplicates and reordering", "44e45eb65e7ef050123b38e80d56c99d");
    ("down: crash-restart episode", "a29a784bc8079341fd00c35134558800");
    ("unguarded state violators", "559713227f576b78bf94abe36b4493e1");
    ("guarded state violators", "ccebef91f4ca34df3966812d1a2d54ab");
    ("patience detector with claims", "321786c76e704b749f952bd09be06ddc");
  ]

let test_golden (label, run) () =
  match List.assoc_opt label golden with
  | None -> Alcotest.failf "no golden digest recorded for %S" label
  | Some expected -> Alcotest.(check string) label expected (digest (run ()))

(* the extras only guard the rare paths if they still reach them *)
let test_rare_paths_reached () =
  let report label = (List.assoc label extras) () in
  let dedup r =
    Stack.counter r ~layer:"dedup" "suppressed-prop"
    + Stack.counter r ~layer:"dedup" "suppressed-rej"
  in
  Alcotest.(check bool) "duplicates reach dedup" true (dedup (report "datagram duplicates") > 0);
  let down = report "down: crash-restart episode" in
  Alcotest.(check bool)
    "retired-node REJ broadcast hits dedup" true
    (Stack.counter down ~layer:"dedup" "suppressed-rej" > 0);
  (* every violator PROPs one stranger at start-up *)
  Alcotest.(check bool)
    "unguarded violators present" true
    ((report "unguarded state violators").Stack.byz_count > 0);
  let guarded = report "guarded state violators" in
  Alcotest.(check bool)
    "stranger PROPs observed" true
    (Option.value ~default:0 (List.assoc_opt "stranger" guarded.Stack.offence_counts) > 0)

let suite =
  List.map
    (fun ((label, _) as entry) -> Alcotest.test_case label `Quick (test_golden entry))
    runs
  @ [ Alcotest.test_case "rare paths reached" `Quick test_rare_paths_reached ]
