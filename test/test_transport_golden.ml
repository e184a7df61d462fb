(* Golden fingerprints of the ARQ transport.

   Each scenario drives one Transport over one seeded Simnet and digests
   everything observable from outside the module: the frame log of the
   Simnet trace hook (arrival time as a hex float, link, frame kind,
   epoch, seq or cum), the on_deliver log, the on_peer_dead log, all
   eight transport counters and the Simnet counters.  The expected
   digests were recorded from the transport as it stood before its
   per-link state was flattened into arrays (tuple-keyed tables of
   records, one table per send window and per out-of-order buffer);
   every later transport must reproduce them byte for byte — same RNG
   draws, same frames in the same order, same callbacks.

   The scenarios cover the clean path, each channel fault on its own,
   give-up, the crash/restart epoch script of [test_transport.ml], a
   sender restart with a timer still pending, a scheduled outage
   covered by the [hold] hook, and jitter-free timers;
   [test_rare_paths_reached] checks that each still reaches the path it
   is there to guard. *)

module Sim = Owp_simnet.Simnet
module Tr = Owp_simnet.Transport

type outcome = {
  render : string;
  tr : int Tr.t;
  net : int Tr.frame Sim.t;
  ooo_arrivals : int; (* data frames that arrived ahead of a gap *)
  late_epochs : int; (* frames carrying a post-restart epoch *)
}

let links = [ (0, 1); (1, 0); (1, 2); (2, 0) ]

(* [drive] wires the logs around a fresh transport, runs [script] (which
   sends and schedules), drains the network and renders the result *)
let drive ?config ?hold ?outage ?(fifo = true) ?(faults = Sim.no_faults) ?(seed = 3)
    ?(delay = Sim.Uniform (0.5, 1.5)) ~nodes script =
  let net = Sim.create ~seed ~fifo ~faults ~nodes ~delay () in
  let b = Buffer.create 4096 in
  let delivered = Hashtbl.create 8 in
  let count link = Option.value ~default:0 (Hashtbl.find_opt delivered link) in
  let ooo = ref 0 and late = ref 0 in
  let tr =
    Tr.create ?config ?hold:(Option.map (fun h -> h net) hold) net
      ~on_deliver:(fun ~src ~dst m ->
        Hashtbl.replace delivered (src, dst) (count (src, dst) + 1);
        Printf.bprintf b "deliver %d>%d %d\n" src dst m)
      ~on_peer_dead:(fun ~node ~peer -> Printf.bprintf b "dead %d>%d\n" node peer)
  in
  Sim.set_outage net outage;
  Sim.set_trace net
    (Some
       (fun at ~src ~dst frame ->
         match frame with
         | Tr.Data { epoch; seq; _ } ->
             if epoch > 0 then incr late;
             if epoch = 0 && seq > count (src, dst) then incr ooo;
             Printf.bprintf b "%h %d>%d D e%d s%d\n" at src dst epoch seq
         | Tr.Ack { epoch; cum } ->
             if epoch > 0 then incr late;
             Printf.bprintf b "%h %d>%d A e%d c%d\n" at src dst epoch cum));
  script net tr;
  Sim.run net;
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v)
    [
      ("data", Tr.data_sent tr);
      ("retransmissions", Tr.retransmissions tr);
      ("acks", Tr.acks_sent tr);
      ("dup-suppressed", Tr.duplicates_suppressed tr);
      ("dead-links", Tr.peers_declared_dead tr);
      ("suspected", Tr.links_suspected tr);
      ("resumed", Tr.links_resumed tr);
      ("held-give-ups", Tr.give_ups_held tr);
      ("sim-sent", Sim.messages_sent net);
      ("sim-delivered", Sim.messages_delivered net);
      ("sim-dropped", Sim.messages_dropped net);
      ("sim-reordered", Sim.messages_reordered net);
      ("sim-lost-to-crashes", Sim.messages_lost_to_crashes net);
      ("sim-cut", Sim.messages_cut net);
      ("sim-crashes", Sim.crash_events net);
      ("sim-events", Sim.events_processed net);
    ];
  Printf.bprintf b "now=%h\n" (Sim.now net);
  { render = Buffer.contents b; tr; net; ooo_arrivals = !ooo; late_epochs = !late }

(* two bursts per link: 25 payloads at t = 0, 10 more at t = 10, so
   windows both grow from empty and extend a live window *)
let bursts net tr =
  List.iter
    (fun (src, dst) ->
      for i = 1 to 25 do
        Tr.send tr ~src ~dst i
      done)
    links;
  Sim.schedule net ~delay:10.0 (fun () ->
      List.iter
        (fun (src, dst) ->
          for i = 26 to 35 do
            Tr.send tr ~src ~dst i
          done)
        links)

let crash_restart net tr =
  Tr.send tr ~src:0 ~dst:1 1;
  Sim.schedule net ~delay:2.0 (fun () -> Sim.crash net 1);
  Sim.schedule net ~delay:3.5 (fun () -> Tr.send tr ~src:0 ~dst:1 2);
  Sim.schedule net ~delay:6.0 (fun () ->
      Sim.restart net 1;
      Tr.restart_node tr 1);
  Sim.schedule net ~delay:7.0 (fun () -> Tr.send tr ~src:1 ~dst:0 3)

(* the sender at node 0 restarts while its first timer is pending, then
   reopens the link with the peer down: the pending timer belongs to
   the cleared sender and must not fire into the new stream's window *)
let sender_restart net tr =
  Tr.send tr ~src:0 ~dst:1 1;
  Sim.schedule net ~delay:0.5 (fun () -> Sim.crash net 1);
  Sim.schedule net ~delay:1.0 (fun () -> Sim.crash net 0);
  Sim.schedule net ~delay:1.5 (fun () ->
      Sim.restart net 0;
      Tr.restart_node tr 0);
  Sim.schedule net ~delay:2.0 (fun () -> Tr.send tr ~src:0 ~dst:1 2);
  Sim.schedule net ~delay:10.0 (fun () ->
      Sim.restart net 1;
      Tr.restart_node tr 1)

(* every link touching node 1 is cut during [5, 70); the hold hook
   covers the episode plus one capped RTO *)
let outage ~at ~src ~dst = if (src = 1 || dst = 1) && at >= 5.0 && at < 70.0 then 1.0 else 0.0
let hold net ~node:_ ~peer:_ = Sim.now net < 80.0

let scenarios =
  let quick = { Tr.default_config with rto_initial = 1.0; max_retries = 3 } in
  [
    ("clean channel", fun () -> drive ~nodes:3 bursts);
    ("drop 0.3", fun () -> drive ~faults:(Sim.faults ~drop:0.3 ()) ~nodes:3 bursts);
    ("duplicate 1.0", fun () -> drive ~faults:(Sim.faults ~duplicate:1.0 ()) ~nodes:3 bursts);
    ( "reorder 0.4, no FIFO",
      fun () -> drive ~fifo:false ~faults:(Sim.faults ~reorder:0.4 ()) ~nodes:3 bursts );
    ( "drop 1.0, give-up",
      fun () ->
        drive ~config:quick ~faults:(Sim.faults ~drop:1.0 ()) ~nodes:3 (fun net tr ->
            bursts net tr;
            (* sends to a dead peer are discarded *)
            Sim.schedule net ~delay:200.0 (fun () -> Tr.send tr ~src:0 ~dst:1 99)) );
    ( "crash/restart epochs",
      fun () ->
        drive ~config:{ quick with max_retries = 4 } ~seed:1 ~delay:Sim.Unit ~nodes:2
          crash_restart );
    ( "sender restart retires its timers",
      fun () -> drive ~seed:1 ~delay:Sim.Unit ~nodes:2 sender_restart );
    ( "outage held by the hold hook",
      fun () ->
        drive
          ~config:{ quick with rto_max = 6.0 }
          ~hold ~outage ~faults:(Sim.faults ~drop:0.1 ()) ~nodes:3 bursts );
    ( "jitter-free timers",
      fun () ->
        drive
          ~config:{ Tr.default_config with rto_jitter = 0.0 }
          ~faults:(Sim.faults ~drop:0.3 ~duplicate:0.2 ~reorder:0.2 ())
          ~nodes:3 bursts );
  ]

let golden =
  [
    ("clean channel", "08f91878d71721b9ef5482c45ab184aa");
    ("drop 0.3", "a8e7f8f58c3a0671904abbba7a3b7904");
    ("duplicate 1.0", "d9b7fc7b1f4d225cb7cd9dabcbf020f8");
    ("reorder 0.4, no FIFO", "b454febec6a6ef6bced66366c6018b0e");
    ("drop 1.0, give-up", "62f5a7937ba05df353ca2cc8a64def18");
    ("crash/restart epochs", "315119d9429241ed3d38703ffa77e6f8");
    ("sender restart retires its timers", "1ddf96c8d68856cacc67e1f0f595ce7f");
    ("outage held by the hold hook", "59a72d33929c808c4d52b6a1fda87437");
    ("jitter-free timers", "f0161bdab4bd0a2aca06fc113e93de84");
  ]

let test_golden (label, run) () =
  match List.assoc_opt label golden with
  | None -> Alcotest.failf "no golden digest recorded for %S" label
  | Some expected ->
      Alcotest.(check string) label expected (Digest.to_hex (Digest.string (run ()).render))

(* the digests only guard the rare paths if the scenarios still reach them *)
let test_rare_paths_reached () =
  let run label = (List.assoc label scenarios) () in
  let positive what n = Alcotest.(check bool) (Printf.sprintf "%s (%d)" what n) true (n > 0) in
  let clean = run "clean channel" in
  Alcotest.(check int) "clean: no retransmissions" 0 (Tr.retransmissions clean.tr);
  positive "drop: retransmissions" (Tr.retransmissions (run "drop 0.3").tr);
  positive "duplicate: suppressed" (Tr.duplicates_suppressed (run "duplicate 1.0").tr);
  let reorder = run "reorder 0.4, no FIFO" in
  positive "reorder: channel reordered" (Sim.messages_reordered reorder.net);
  positive "reorder: arrivals ahead of a gap" reorder.ooo_arrivals;
  positive "give-up: dead links" (Tr.peers_declared_dead (run "drop 1.0, give-up").tr);
  let crash = run "crash/restart epochs" in
  positive "crash: lost to crashes" (Sim.messages_lost_to_crashes crash.net);
  positive "crash: post-restart epoch frames" crash.late_epochs;
  positive "crash: dead links" (Tr.peers_declared_dead crash.tr);
  let restart = run "sender restart retires its timers" in
  positive "sender restart: post-restart epoch frames" restart.late_epochs;
  positive "sender restart: retransmissions" (Tr.retransmissions restart.tr);
  let held = run "outage held by the hold hook" in
  positive "outage: cut" (Sim.messages_cut held.net);
  positive "outage: suspected" (Tr.links_suspected held.tr);
  positive "outage: held give-ups" (Tr.give_ups_held held.tr);
  positive "outage: resumed" (Tr.links_resumed held.tr);
  positive "jitter-free: retransmissions" (Tr.retransmissions (run "jitter-free timers").tr)

let suite =
  List.map
    (fun ((label, _) as entry) -> Alcotest.test_case label `Quick (test_golden entry))
    scenarios
  @ [ Alcotest.test_case "rare paths reached" `Quick test_rare_paths_reached ]
