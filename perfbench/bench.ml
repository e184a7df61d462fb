(* The repository benchmark.

   Drives the library calls that [owp run] and [owp serve] make
   ({!Owp_core.Pipeline.run_config}, {!Owp_serve.Serve.run}) on three
   seeded workloads, checks every output against an exact oracle and
   prints the metrics; the last stdout line is one JSON object
   [{correct, attempted, failed, metrics}].

     bench.exe --workload overlay-large|overlay-lossy|serve-churn
               --seed N --seconds S --trace 0|1 [--small]

   [--trace 0] is the timed run: the end-to-end metrics, measured with
   no instrumentation at all.  [--trace 1] is the separate traced run:
   spans (name, start, end, parent) recorded from outside around the
   benchmark's own calls into each layer's public functions, kept in
   memory and written to .perfbench_out/ at the end; it prints the per-layer
   metrics.  [--small] shrinks every workload to n = 200 and a short
   session for the benchmark's self-test.  Everything runs in this one
   process, single-threaded ([sim_shards = 1], no worker pool), under
   the OCaml runtime's default GC settings. *)

module RC = Owp_core.Run_config
module Pipeline = Owp_core.Pipeline
module Stack = Owp_core.Stack
module Lid = Owp_core.Lid
module Lic = Owp_core.Lic
module Lic_indexed = Owp_core.Lic_indexed
module Serve_report = Owp_core.Serve_report
module Simnet = Owp_simnet.Simnet
module Faults = Owp_simnet.Faults
module Serve = Owp_serve.Serve
module Arrivals = Owp_serve.Arrivals
module Bmatching = Owp_matching.Bmatching
module Prng = Owp_util.Prng

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let ok_exn = function Ok v -> v | Error msg -> failwith msg

(* ---------------------------------------------------------------- *)
(* Workloads *)

type workload = {
  name : string;
  n : int;
  deg : float;  (** G(n,m) average degree *)
  quota : int;
  faults : Faults.t;
  reliable : bool;
  arrivals : Arrivals.t option;  (** [Some _]: a serve session *)
}

let workloads ~small =
  let n full = if small then 200 else full in
  [
    {
      name = "overlay-large";
      n = n 50_000;
      deg = 16.0;
      quota = 8;
      faults = Faults.none;
      reliable = false;
      arrivals = None;
    };
    {
      name = "overlay-lossy";
      n = n 10_000;
      deg = 16.0;
      quota = 8;
      faults = ok_exn (Faults.of_string "drop=0.05,dup=0.02,reorder=0.1");
      reliable = true;
      arrivals = None;
    };
    {
      name = "serve-churn";
      n = n 1000;
      deg = 8.0;
      quota = 3;
      faults = Faults.none;
      reliable = false;
      arrivals =
        Some
          (ok_exn (Arrivals.of_string (if small then "0.2:horizon=300" else "0.2:horizon=5000")));
    };
  ]

let config w ~seed = RC.make ~engine:RC.Lid ~seed ~faults:w.faults ~reliable:w.reliable ()

(* ---------------------------------------------------------------- *)
(* Tracing: spans recorded around the benchmark's own calls *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 at the root *)
    mutable start : float;
    mutable stop : float;
    mutable total : float;  (** summed duration; [stop - start] unless aggregated *)
    mutable count : int;  (** calls folded into this span *)
  }

  type t = { origin : float; mutable spans : span list; mutable open_ : int list }

  let create () = { origin = now (); spans = []; open_ = [] }

  let fresh t name =
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    let s =
      { id = List.length t.spans; name; parent; start = now (); stop = nan; total = 0.0; count = 0 }
    in
    t.spans <- s :: t.spans;
    s

  (* [span t name f]: one span around [f ()], a child of the innermost
     open span *)
  let span t name f =
    let s = fresh t name in
    t.open_ <- s.id :: t.open_;
    s.start <- now ();
    let r = f () in
    s.stop <- now ();
    s.total <- s.stop -. s.start;
    s.count <- 1;
    t.open_ <- List.tl t.open_;
    r

  (* a span that sums many short calls (one per delivery) into one
     total and count instead of one span each *)
  let aggregate t name = fresh t name

  let add s t0 t1 =
    if s.count = 0 then s.start <- t0;
    s.stop <- t1;
    s.total <- s.total +. (t1 -. t0);
    s.count <- s.count + 1

  (* the duration of the span opened last *)
  let last_total t = (List.hd t.spans).total

  let self t s =
    List.fold_left (fun acc c -> if c.parent = s.id then acc -. c.total else acc) s.total t.spans

  let named t name = List.filter (fun s -> s.name = name) (List.rev t.spans)
  let total t name = median (List.map (fun s -> s.total) (named t name))
  let self_time t name = median (List.map (self t) (named t name))
  let count t name = List.fold_left (fun acc s -> acc + s.count) 0 (named t name)

  (* one line per span name, in order of first appearance: calls, and
     the median total and self time over its spans *)
  let print_summary t =
    Printf.printf "%-24s %10s %14s %14s\n" "span" "calls" "total_s" "self_s";
    List.iter
      (fun s ->
        if (List.hd (named t s.name)).id = s.id then
          Printf.printf "%-24s %10d %14.6f %14.6f\n" s.name (count t s.name) (total t s.name)
            (self_time t s.name))
      (List.rev t.spans)

  let write t path =
    let oc = open_out path in
    output_string oc "[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.9f, \"end\": %.9f, \
           \"total\": %.9f, \"self\": %.9f, \"count\": %d}"
          (if i = 0 then "" else ",\n")
          s.id s.name s.parent (s.start -. t.origin) (s.stop -. t.origin) s.total (self t s)
          s.count)
      (List.rev t.spans);
    output_string oc "\n]\n";
    close_out oc
end

(* [traced tr name f]: a span when tracing, a bare call otherwise *)
let traced tr name f = match tr with Some t -> Trace.span t name f | None -> f ()

(* ---------------------------------------------------------------- *)
(* Instances: the E23b generator, step by step *)

type instance = { prefs : Preference.t; weights : Weights.t; capacity : int array }

let generate ?tr w ~seed =
  let rng = Prng.create seed in
  let m = min (w.n * (w.n - 1) / 2) (int_of_float (float_of_int w.n *. w.deg /. 2.0)) in
  let g = traced tr "gen.gnm" (fun () -> Gen.gnm rng ~n:w.n ~m) in
  let prefs =
    traced tr "preference.random" (fun () ->
        Preference.random rng g ~quota:(Preference.uniform_quota g w.quota))
  in
  let weights = traced tr "weights.of_preference" (fun () -> Weights.of_preference prefs) in
  { prefs; weights; capacity = Array.init w.n (Preference.quota prefs) }

(* ---------------------------------------------------------------- *)
(* Correctness: what one build must reproduce exactly *)

type build_print = {
  props : int;
  rejs : int;
  frames : int;  (** channel [sent] *)
  converge_vt : float;
  satisfaction_mean : float;
  total_satisfaction : float;
}

let stack_report (o : Pipeline.outcome) =
  match o.Pipeline.detail with Pipeline.Stack r -> Some r | Pipeline.Plain -> None

(* PROP, REJ, channel frames and virtual completion time of one run *)
let protocol_print (r : Stack.report) =
  (r.Stack.prop_count, r.Stack.rej_count, Stack.counter r ~layer:"channel" "sent",
   r.Stack.completion_time)

let fingerprint (o : Pipeline.outcome) =
  match stack_report o with
  | None -> failwith "LID build without a stack report"
  | Some r ->
      let props, rejs, frames, converge_vt = protocol_print r in
      {
        props;
        rejs;
        frames;
        converge_vt;
        satisfaction_mean = o.Pipeline.mean_satisfaction;
        total_satisfaction = o.Pipeline.total_satisfaction;
      }

(* the oracle: LIC's locally-heaviest edge set (Lemmas 3/4/6), computed
   by the indexed engine through the same pipeline *)
let oracle inst ~seed = Pipeline.run_config (RC.make ~engine:RC.Lic_indexed ~seed ()) inst.prefs

let same_edges (a : Bmatching.t) (b : Bmatching.t) = Bmatching.edge_ids a = Bmatching.edge_ids b

(* one build is correct when it quiesced on LIC's edge set and repeats
   the first build's protocol fingerprint bit-for-bit *)
let check_build ~(oracle : Pipeline.outcome) ~first (o : Pipeline.outcome) =
  let fp = fingerprint o in
  let reasons =
    List.filter_map
      (fun (bad, why) -> if bad then Some why else None)
      [
        (o.Pipeline.quiesced <> Some true, "build did not quiesce");
        ( not (same_edges o.Pipeline.matching oracle.Pipeline.matching),
          "edge set differs from LIC's" );
        ( (match first with Some a -> a <> fp | None -> false),
          "PROP/REJ/frames/converge_vt differ from the first repetition" );
      ]
  in
  (fp, reasons)

(* ---------------------------------------------------------------- *)
(* Metrics *)

(* [gated] metrics make the JSON result line (BENCHMARK.json's
   end-to-end or per-layer set); the others are printed only — exact
   per seed, but too spread across seeds for a median bound *)
type metric = { mname : string; unit_ : string; value : float; note : string; gated : bool }

let metric ?(note = "") ?(gated = true) mname unit_ value = { mname; unit_; value; note; gated }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed metrics problems =
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let failed_frac =
    metric "failed_frac" "ratio" ~gated:false
      (if attempted = 0 then 1.0 else float_of_int failed /. float_of_int attempted)
      ~note:(Printf.sprintf "%d failed of %d attempted" failed attempted)
  in
  List.iter
    (fun m ->
      Printf.printf "%-33s %-22s %-13s %s%s\n" m.mname (json_number m.value) m.unit_
        (if m.gated then "" else "[printed only] ")
        m.note)
    (failed_frac :: metrics);
  let body =
    String.concat ", "
      (List.filter_map
         (fun m ->
           if m.gated then
             Some
               (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (json_number m.value)
                  m.unit_)
           else None)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

(* ---------------------------------------------------------------- *)
(* The timed run *)

(* host seconds spent setting up in a timed run, at least three set-ups *)
let setup_seconds = 2.0

(* set up repeatedly for [setup_seconds]: the times, and whether every
   copy is the instance [inst].  A [Gc.full_major] goes before the first
   set-up, and before every other one on a large instance, so that a
   copy's garbage is not collected inside the next timed set-up.  Small
   set-ups run back to back: each [Gc.full_major] leaves the major GC's
   pacing ahead of allocation, and hundreds of them would let the heap
   grow tenfold *)
let timed_setup w ~seed inst =
  let t0 = now () and times = ref [] and same = ref true and k = ref 0 in
  while !k < 3 || now () -. t0 < setup_seconds do
    if !k = 0 || w.n >= 10_000 then Gc.full_major ();
    incr k;
    let copy, dt = time (fun () -> generate w ~seed) in
    times := dt :: !times;
    if Weights.unsafe_weights copy.weights <> Weights.unsafe_weights inst.weights then
      same := false
  done;
  (!times, !same)

(* call [f] until [seconds] have passed and it ran at least [min_reps]
   times; the results in call order *)
let repeat ~seconds ~min_reps f =
  let t0 = now () in
  let rec go k acc =
    if k >= min_reps && now () -. t0 >= seconds then List.rev acc else go (k + 1) (f () :: acc)
  in
  go 0 []

type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let fail tally why =
  if not (List.mem why tally.problems) then tally.problems <- tally.problems @ [ why ]

(* [peak] is read once, right after the workload's first operation *)
let read_peak peak = if Float.is_nan !peak then peak := peak_heap_mb ()

(* one checked build through [Pipeline.run_config], returning its host
   seconds: only the call is timed, not the checks.  Only the first
   build's fingerprint is kept, never the outcomes *)
let builder tally ~peak ~first w inst ~seed =
  let cfg = config w ~seed in
  let oracle = oracle inst ~seed in
  let build () =
    Gc.full_major ();
    let o, dt = time (fun () -> Pipeline.run_config cfg inst.prefs) in
    read_peak peak;
    let fp, reasons = check_build ~oracle ~first:!first o in
    if !first = None then first := Some fp;
    tally.attempted <- tally.attempted + 1;
    if reasons <> [] then begin
      tally.failed <- tally.failed + 1;
      List.iter (fail tally) reasons
    end;
    dt
  in
  (build, oracle)

(* the checks on one serve session of arrival stream [stream]: its
   report, if it has one.  [summaries] holds each stream's first report,
   which a rerun must repeat byte for byte *)
let check_session tally ~summaries stream outcome =
  match outcome with
  | Ok ({ Pipeline.serve = Some rep; _ } as o) ->
      let summary = Serve_report.summary rep in
      let reasons =
        List.filter_map
          (fun (bad, why) -> if bad then Some why else None)
          [
            ( rep.Serve_report.served + rep.Serve_report.shed <> rep.Serve_report.offered,
              "served + shed <> offered" );
            ( (match Hashtbl.find_opt summaries stream with
              | Some s -> s <> summary
              | None -> false),
              "serve summary differs from the first run of its stream" );
            (o.Pipeline.quiesced <> Some true, "last serve build did not quiesce");
            (* every served matching is LIC's edge set (Lemma 6), so the
               served/oracle ratio is exactly 1 *)
            ( rep.Serve_report.steady_satisfaction <> 1.0,
              "served satisfaction differs from the LIC oracle's" );
          ]
      in
      Hashtbl.replace summaries stream summary;
      (* a session counts as one operation plus its requests; shed
         requests fail, and a failed check fails it all *)
      tally.attempted <- tally.attempted + rep.Serve_report.offered;
      tally.failed <-
        (tally.failed
        + if reasons = [] then rep.Serve_report.shed else 1 + rep.Serve_report.offered);
      List.iter (fail tally) reasons;
      Some rep
  | Ok _ ->
      tally.failed <- tally.failed + 1;
      fail tally "serve outcome carries no report";
      None
  | Error msg ->
      tally.failed <- tally.failed + 1;
      fail tally ("serve: " ^ msg);
      None

(* one checked serve session on arrival stream [stream], returning its
   report and host seconds: only [Serve.run] is timed *)
let serve_session tally ~peak ~summaries w arrivals inst ~seed stream =
  tally.attempted <- tally.attempted + 1;
  Gc.full_major ();
  let cfg = config w ~seed:(seed + (1_000_003 * stream)) in
  let outcome, dt = time (fun () -> Serve.run ~arrivals cfg inst.prefs) in
  read_peak peak;
  (check_session tally ~summaries stream outcome, dt)

(* the sample count and range beside a median *)
let range_note what xs =
  Printf.sprintf "median of %d %s, min %.4g, max %.4g" (List.length xs) what
    (List.fold_left Float.min infinity xs)
    (List.fold_left Float.max neg_infinity xs)

let timed w ~seed ~seconds =
  let tally = { attempted = 0; failed = 0; problems = [] } in
  let inst = generate w ~seed in
  let peak = ref nan and first = ref None in
  let build, oracle = builder tally ~peak ~first w inst ~seed in
  let builds seconds = repeat ~seconds ~min_reps:3 build in
  (* the workload's first operation (a build, or the seed's own serve
     session) runs before the timed set-ups, on a heap that holds only
     the instance and the oracle's answer, and the peak heap is read
     right after it.  Read later, the peak would depend on how many
     set-ups fit in [setup_seconds] *)
  let setup () =
    let times, same = timed_setup w ~seed inst in
    if not same then fail tally "set-up is not deterministic in the seed";
    times
  in
  let setups, walls, sessions =
    match w.arrivals with
    | None ->
        let first = build () in
        let setup = setup () in
        (setup, first :: builds seconds, None)
    | Some arrivals ->
        (* five sessions over four seeded arrival streams: the seed's
           own first and again last.  A short batch of builds follows
           each session, so that both medians sample the whole run: the
           host's speed drifts over seconds *)
        let summaries = Hashtbl.create 4 in
        let session stream = serve_session tally ~peak ~summaries w arrivals inst ~seed stream in
        let first = session 0 in
        let setup = setup () in
        let batch () = builds (seconds /. 50.0) in
        let walls = ref (batch ()) in
        let runs =
          List.map
            (fun stream ->
              let r = session stream in
              walls := !walls @ batch ();
              r)
            [ 1; 2; 3; 0 ]
        in
        (setup, !walls, Some (first :: runs))
  in
  let fp = Option.get !first and build_s = median walls in
  let common =
    [
      metric "setup_s" "s" (median setups) ~note:(range_note "set-ups" setups);
      metric "build_s" "s" build_s ~note:(range_note "builds" walls);
      metric "converge_vt" "vt" fp.converge_vt ~gated:false;
      metric "wire_frames" "count" (float_of_int fp.frames)
        ~note:(Printf.sprintf "PROP %d + REJ %d" fp.props fp.rejs);
      metric "satisfaction_mean" "ratio" fp.satisfaction_mean;
    ]
  in
  let session =
    match sessions with
    | None ->
        (* an overlay build is a one-request session: the request is
           the build itself and the oracle is LIC on the same instance *)
        [
          metric "session_s" "s" build_s ~note:"one-request session = the build";
          metric "steady_satisfaction" "ratio"
            (fp.total_satisfaction /. oracle.Pipeline.total_satisfaction)
            ~note:"built / LIC total satisfaction";
        ]
    | Some runs ->
        (* the exact figures are the seed's own stream's *)
        let get f = Option.fold ~none:nan ~some:f (fst (List.hd runs)) in
        let count f = get (fun r -> float_of_int (f r)) in
        let served = Printf.sprintf "of %.0f served" (count (fun r -> r.Serve_report.served)) in
        [
          metric "session_s" "s"
            (median (List.map snd runs))
            ~note:"median of 5 sessions over 4 arrival streams";
          metric "steady_satisfaction" "ratio"
            (get (fun r -> r.Serve_report.steady_satisfaction))
            ~note:
              (Printf.sprintf "%.0f oracle samples" (count (fun r -> r.Serve_report.oracle_samples)));
          metric "latency_p50_vt" "vt" (get (fun r -> r.Serve_report.p50)) ~gated:false ~note:served;
          metric "latency_p99_vt" "vt" (get (fun r -> r.Serve_report.p99)) ~gated:false ~note:served;
        ]
  in
  let metrics =
    common @ session
    @ [
        metric "peak_heap_mb" "MB" !peak
          ~note:
            (Printf.sprintf "after the %s; %.1f at exit"
               (if Option.is_none sessions then "first build" else "seed's own session")
               (peak_heap_mb ()));
      ]
  in
  (tally, metrics)

(* ---------------------------------------------------------------- *)
(* The traced run *)

(* [Stack.run] with exactly the arguments [Pipeline.run_config] passes
   for a single-threaded, adversary-free, crash-free, unbudgeted config *)
let stack_run cfg prefs w ~capacity =
  let f = cfg.RC.faults in
  Stack.run ~seed:cfg.RC.seed ~fifo:f.Faults.fifo ~faults:(Faults.channel f)
    ~schedule:cfg.RC.schedule ~reliable:cfg.RC.reliable ~sim_shards:cfg.RC.sim_shards
    ?patience:(Faults.effective_patience f) ~crashes:[] ~guard:false ~prefs w ~capacity

(* Algorithm 1 on the simulator, assembled from the public state machine
   and simulator calls only: every [Lid.deliver] is timed into one
   aggregated span under [simnet.run] *)
let lid_replay tr ~seed w ~capacity =
  let st, initial = Trace.span tr "lid.init" (fun () -> Lid.init w ~capacity) in
  let n = Graph.node_count (Weights.graph w) in
  let net = Simnet.create ~seed ~nodes:(max n 1) ~delay:(Simnet.Uniform (0.5, 1.5)) () in
  let emit = function Lid.Send (src, dst, m) -> Simnet.send net ~src ~dst m | Lid.Lock _ -> () in
  List.iter emit initial;
  Trace.span tr "simnet.run" (fun () ->
      let deliver = Trace.aggregate tr "lid.deliver" in
      Simnet.set_handler net (fun ~src ~dst m ->
          let t0 = now () in
          let events = Lid.deliver st ~src ~dst m in
          Trace.add deliver t0 (now ());
          List.iter emit events);
      Simnet.run net);
  (Lid.locked_edge_ids st, Simnet.events_processed net)

(* how many times each layer call repeats in the traced run: four at
   10^4+ nodes, more on small instances whose calls take milliseconds.
   Even, so that [paired] puts each order first equally often *)
let trace_rounds w = if w.n >= 10_000 then 4 else 8

(* traced and untraced serve sessions, run in pairs *)
let session_pairs = 4

(* [paired i plain traced]: both results, [plain ()] first in even
   rounds and [traced ()] first in odd ones, so that the order within a
   pair cancels in a median of pair differences *)
let paired i plain traced =
  if i mod 2 = 0 then
    let p = plain () in
    (p, traced ())
  else
    let t = traced () in
    (plain (), t)

let traced_run w ~seed =
  let out = ".perfbench_out" in
  let tally = { attempted = 0; failed = 0; problems = [] } in
  let check bad why =
    tally.attempted <- tally.attempted + 1;
    if bad then begin
      tally.failed <- tally.failed + 1;
      fail tally why
    end
  in
  let tr = Trace.create () in
  let span name f = Trace.span tr name f in
  let cfg = config w ~seed in
  let rounds = trace_rounds w in
  let inst = span "setup" (fun () -> generate ~tr w ~seed) in
  let { prefs; weights; capacity } = inst in
  let oracle_edges =
    Bmatching.edge_ids (span "lic_indexed.run" (fun () -> Lic_indexed.run weights ~capacity))
  in
  let edges_ok m = Bmatching.edge_ids m = oracle_edges in
  let lic_ok = ref true in
  for _ = 1 to rounds do
    lic_ok := !lic_ok && edges_ok (span "lic.run" (fun () -> Lic.run weights ~capacity))
  done;
  check (not !lic_ok) "Lic.run differs from Lic_indexed.run";
  (* per round: an untraced and the traced build, in a pair (their
     difference is one sample of the tracing overhead; pairing cancels
     the host's drift), then the traced build's phases replayed through
     public steps.  The residual is taken per round too *)
  let report = ref None and minor_per_frame = ref nan in
  let build_overhead = ref [] and residuals = ref [] and coverages = ref [] in
  for i = 1 to rounds do
    let plain_s, (o, build_s) =
      paired i
        (fun () ->
          Gc.full_major ();
          snd (time (fun () -> Pipeline.run_config cfg prefs)))
        (fun () ->
          Gc.full_major ();
          let o = span "pipeline.run_config" (fun () -> Pipeline.run_config cfg prefs) in
          (o, Trace.last_total tr))
    in
    build_overhead := (build_s -. plain_s) :: !build_overhead;
    check (o.Pipeline.quiesced <> Some true || not (edges_ok o.Pipeline.matching))
      "traced build is not LIC's edge set";
    let traced = Option.get (stack_report o) in
    report := Some traced;
    Gc.full_major ();
    let phases = ref 0.0 in
    let phase name f =
      let r = span name f in
      phases := !phases +. Trace.last_total tr;
      r
    in
    span "pipeline.replay" (fun () ->
        let w = phase "pipeline.weights" (fun () -> Pipeline.weights prefs) in
        let minor0 = Gc.minor_words () in
        let r = phase "stack.run" (fun () -> stack_run cfg prefs w ~capacity) in
        let minor = Gc.minor_words () -. minor0 in
        minor_per_frame := minor /. float_of_int (Stack.counter r ~layer:"channel" "sent");
        check
          ((not r.Stack.all_terminated) || not (edges_ok r.Stack.matching))
          "replayed Stack.run is not LIC's edge set";
        (* the phase metrics hold only if the replay is the build's own
           [Stack.run] call *)
        check
          (protocol_print r <> protocol_print traced)
          "replayed Stack.run differs from the traced build in PROP/REJ/frames/converge_vt";
        ignore
          (phase "pipeline.profile" (fun () ->
               Pipeline.satisfaction_profile prefs r.Stack.matching)));
    residuals := (build_s -. !phases) :: !residuals;
    coverages := (!phases /. build_s) :: !coverages
  done;
  (* the reference driver and the public-API replay of it *)
  let events = ref 0 in
  for _ = 1 to rounds do
    Gc.full_major ();
    let r = span "lid.run" (fun () -> Lid.run ~seed weights ~capacity) in
    check (not (edges_ok r.Lid.matching)) "Lid.run is not LIC's edge set";
    Gc.full_major ();
    let edges, ev = span "lid.replay" (fun () -> lid_replay tr ~seed weights ~capacity) in
    events := ev;
    check (edges <> oracle_edges) "the Lid.init/deliver replay is not LIC's edge set"
  done;
  (* the layer rows of the traced build's own report *)
  let report = Option.get !report in
  let c layer name = float_of_int (Stack.counter report ~layer name) in
  (* the serve session, traced and untraced *)
  let serve =
    match w.arrivals with
    | None -> None
    | Some arrivals ->
        let session () =
          match Serve.run ~arrivals cfg prefs with
          | Ok { Pipeline.serve = Some rep; _ } -> rep
          | Ok _ -> failwith "serve outcome carries no report"
          | Error msg -> failwith ("serve: " ^ msg)
        in
        let diffs, reps =
          List.split
            (List.init session_pairs (fun i ->
                 let (plain, plain_s), (rep, minor, traced_s) =
                   paired i
                     (fun () ->
                       Gc.full_major ();
                       time session)
                     (fun () ->
                       Gc.full_major ();
                       let minor0 = Gc.minor_words () in
                       let rep = span "serve.run" session in
                       (rep, Gc.minor_words () -. minor0, Trace.last_total tr))
                 in
                 check
                   (Serve_report.summary rep <> Serve_report.summary plain)
                   "traced session differs";
                 (traced_s -. plain_s, (rep, minor))))
        in
        let rep, minor = List.hd reps in
        check
          (List.exists (fun (_, m) -> m <> minor) reps)
          "minor words differ across identical sessions";
        check
          (rep.Serve_report.served + rep.Serve_report.shed <> rep.Serve_report.offered)
          "served + shed <> offered";
        let oracle_cfg = RC.make ~engine:RC.Lic ~seed () in
        for _ = 1 to rounds do
          ignore (span "serve.oracle_sample" (fun () -> Pipeline.run_config oracle_cfg prefs))
        done;
        Some (rep, diffs, minor)
  in
  let t = Trace.total tr and self = Trace.self_time tr in
  let build = t "pipeline.run_config" in
  let deliver = Trace.count tr "lid.deliver" / rounds in
  let layer =
    [
      metric "gen.gnm_s" "s" (t "gen.gnm");
      metric "preference.random_s" "s" (t "preference.random");
      metric "weights.of_preference_s" "s" (t "weights.of_preference");
      metric "pipeline.run_config_s" "s" build ~note:"the traced build";
      metric "pipeline.weights_s" "s" (t "pipeline.weights");
      metric "pipeline.profile_s" "s" (t "pipeline.profile");
      metric "pipeline.residual_s" "s" (median !residuals)
        ~note:"run_config minus its replayed phases, median over rounds";
      metric "pipeline.phase_coverage" "ratio" (median !coverages)
        ~note:"replayed phases over the traced build, median over rounds";
      metric "stack.run_s" "s" (t "stack.run");
      metric "stack.minor_words_per_frame" "words/frame" !minor_per_frame;
      metric "stack.premium_vs_lid" "ratio" (t "stack.run" /. t "lid.run");
      metric "lid.run_s" "s" (t "lid.run");
      metric "lid.replay_s" "s" (t "lid.replay");
      metric "lid.init_s" "s" (t "lid.init");
      metric "lid.deliver_s" "s" (t "lid.deliver");
      metric "lid.deliver_ns_per_event" "ns"
        (1e9 *. t "lid.deliver" /. float_of_int (max 1 deliver));
      metric "simnet.self_s" "s" (self "simnet.run");
      metric "simnet.events_per_s" "1/s" (float_of_int !events /. t "simnet.run");
      metric "transport.frames_per_message" "frames/msg" (Stack.overhead report);
      metric "transport.useful_ratio" "ratio"
        (let frames = c "transport" "frames" in
         if frames = 0.0 then 1.0 else c "transport" "data" /. frames);
      metric "transport.retransmissions" "count" (c "transport" "retransmissions");
      metric "transport.acks" "count" (c "transport" "acks");
      metric "transport.dup_suppressed" "count" (c "transport" "dup-suppressed");
      metric "dedup.suppressed" "count" (c "dedup" "suppressed-prop" +. c "dedup" "suppressed-rej");
      metric "channel.dropped" "count" (c "channel" "dropped");
      metric "channel.reordered" "count" (c "channel" "reordered");
      metric "detector.patience_fired" "count" (c "detector" "patience-fired");
      metric "lic_indexed.run_s" "s" (t "lic_indexed.run");
      metric "lic.run_s" "s" (t "lic.run");
    ]
  in
  let serve_metrics, overhead =
    match serve with
    | None ->
        ( List.map (fun (n, u) -> metric n u 0.0 ~note:"no serve session")
            [
              ("serve.mutations", "count");
              ("serve.queries", "count");
              ("serve.max_queue", "count");
              ("serve.host_ms_per_request", "ms/request");
              ("serve.minor_words_per_request", "words/request");
              ("serve.rerun_s", "s");
              ("serve.oracle_s", "s");
            ],
          median !build_overhead )
    | Some (rep, diffs, minor) ->
        let served = float_of_int rep.Serve_report.served in
        let session = t "serve.run" in
        ( [
            metric "serve.mutations" "count"
              (float_of_int
                 (rep.Serve_report.joins + rep.Serve_report.leaves + rep.Serve_report.reprefs));
            metric "serve.queries" "count" (float_of_int rep.Serve_report.queries);
            metric "serve.max_queue" "count" (float_of_int rep.Serve_report.max_queue);
            metric "serve.host_ms_per_request" "ms/request" (1000.0 *. session /. served);
            metric "serve.minor_words_per_request" "words/request" (minor /. served);
            metric "serve.rerun_s" "s" build ~note:"one run_config on the serve instance";
            metric "serve.oracle_s" "s"
              (t "serve.oracle_sample" *. float_of_int rep.Serve_report.oracle_samples)
              ~note:(Printf.sprintf "%d oracle samples" rep.Serve_report.oracle_samples);
          ],
          median diffs )
  in
  let metrics =
    layer @ serve_metrics
    @ [
        metric "trace.overhead_s" "s" overhead
          ~note:
            (Printf.sprintf "median of %d traced-minus-untraced %s pairs"
               (if serve = None then rounds else session_pairs)
               (if serve = None then "build" else "session"));
      ]
  in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" w.name seed) in
  Trace.write tr path;
  Printf.printf "spans written to %s\n" path;
  Trace.print_summary tr;
  (tally, metrics)

(* ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload overlay-large|overlay-lossy|serve-churn --seed N --seconds S \
     --trace 0|1 [--small]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref false in
  let small = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--small" :: rest ->
        small := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match
    (List.find_opt (fun w -> w.name = !workload) (workloads ~small:!small), !seed, !seconds)
  with
  | Some w, Some seed, Some seconds when seconds > 0.0 ->
      let tally, metrics =
        if !trace then traced_run w ~seed else timed w ~seed ~seconds
      in
      let correct = tally.failed = 0 && tally.problems = [] in
      print_result ~correct ~attempted:tally.attempted ~failed:tally.failed metrics
        tally.problems;
      exit (if correct then 0 else 1)
  | _ -> usage ()
