(** The sustained-traffic serving report.

    Filled by the serving layer ([owp_serve]) and carried in
    {!Pipeline.outcome} so every consumer of a pipeline result sees the
    same record; defined here, below the serving layer, to avoid a
    dependency cycle.  All times are {e virtual} (simulation) time —
    the serving layer never reads a wall clock for latency. *)

type t = {
  arrivals : string;  (** the arrival spec, canonically printed *)
  horizon : float;  (** virtual-time horizon of the run *)
  offered : int;  (** requests the arrival process generated *)
  served : int;
      (** requests admitted and completed; [backlog_at_horizon] of them
          complete after the horizon, while the backlog drains *)
  shed : int;
      (** requests rejected because the queue was full;
          [served + shed = offered] *)
  joins : int;  (** served joins *)
  leaves : int;  (** served leaves *)
  reprefs : int;  (** served re-preference events *)
  queries : int;  (** served satisfaction/matching queries *)
  p50 : float;  (** median request latency (queue wait + service) *)
  p99 : float;  (** 99th-percentile request latency *)
  max_latency : float;
  mean_service : float;  (** mean service time alone, excluding waits *)
  throughput : float;
      (** served requests per virtual-time unit of the makespan — the
          horizon plus [drain_time], when the last admitted request
          completes *)
  max_queue : int;  (** deepest backlog observed *)
  backlog_at_horizon : int;
      (** admitted requests still queued or in service at the horizon;
          at most [max_queue] *)
  drain_time : float;
      (** virtual time past the horizon until that backlog has drained;
          [0] when the server was idle by the horizon *)
  utilization : float;  (** busy virtual time / makespan, at most 1 *)
  steady_satisfaction : float;
      (** mean (served satisfaction / from-scratch LIC oracle) over the
          steady-state tail samples *)
  oracle_samples : int;  (** oracle evaluations behind that mean *)
}

val summary : t -> string
(** Canonical multi-line rendering — the CLI prints it and the
    determinism tests compare it byte-for-byte. *)
