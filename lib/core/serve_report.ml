(* Plain data so the serving layer (owp_serve, which depends on
   owp_core) can report through Pipeline.outcome without a dependency
   cycle: the core defines the record, the serving layer fills it. *)

type t = {
  arrivals : string;
  horizon : float;
  offered : int;
  served : int;
  shed : int;
  joins : int;
  leaves : int;
  reprefs : int;
  queries : int;
  p50 : float;
  p99 : float;
  max_latency : float;
  mean_service : float;
  throughput : float;
  max_queue : int;
  backlog_at_horizon : int;
  drain_time : float;
  utilization : float;
  steady_satisfaction : float;
  oracle_samples : int;
}

let f = Printf.sprintf "%.12g"

(* one canonical rendering, used both by the CLI printer and by the
   determinism tests (same seed + spec => byte-identical summary) *)
let summary t =
  String.concat "\n"
    [
      Printf.sprintf "arrivals            : %s" t.arrivals;
      Printf.sprintf "horizon (virtual)   : %s" (f t.horizon);
      Printf.sprintf "offered / served    : %d / %d (%d shed)" t.offered t.served t.shed;
      Printf.sprintf "request mix         : %d join, %d leave, %d repref, %d query"
        t.joins t.leaves t.reprefs t.queries;
      Printf.sprintf "latency p50 / p99   : %s / %s" (f t.p50) (f t.p99);
      Printf.sprintf "latency max         : %s" (f t.max_latency);
      Printf.sprintf "mean service time   : %s" (f t.mean_service);
      Printf.sprintf "throughput          : %s req/vt" (f t.throughput);
      Printf.sprintf "max queue depth     : %d" t.max_queue;
      Printf.sprintf "backlog at horizon  : %d (drained %s later)" t.backlog_at_horizon
        (f t.drain_time);
      Printf.sprintf "utilization         : %s" (f t.utilization);
      Printf.sprintf "steady satisfaction : %s (vs LIC oracle, %d samples)\n"
        (f t.steady_satisfaction) t.oracle_samples;
    ]
