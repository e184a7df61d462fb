(* Golden fingerprints of instance generation.

   Every LIC/LID run starts from the same three artefacts: the overlay
   graph, the preference system and the eq. 9 edge weights, all drawn
   from one seeded Prng stream.  Each case below digests everything
   observable from outside those modules: every public Prng draw
   (floats as %h), every Gen generator's edge array and per-node
   adjacency (neighbour, edge id), [Graph.of_edge_list] on duplicate and
   reversed pairs, [induced_subgraph], the lists and ranks of
   [Preference.random] and [of_metric], and [Weights.of_preference]
   under each combiner.  The last case is the overlay-large benchmark
   instance itself (n = 50 000, m = 400 000, quota 8, seed 23).

   The expected digests were recorded from the generation path as it
   stood with a boxed four-field Prng record, a tuple-keyed Hashtbl
   graph builder with a comparison sort per adjacency, and per-edge
   binary-searched ranks in the weights; every later implementation must
   reproduce them byte for byte. *)

module Prng = Owp_util.Prng

let hex s = Digest.to_hex (Digest.string s)

let render f =
  let b = Buffer.create 4096 in
  f b;
  hex (Buffer.contents b)

let add_int b x =
  Buffer.add_string b (string_of_int x);
  Buffer.add_char b ' '

let add_float b x =
  Buffer.add_string b (Printf.sprintf "%h" x);
  Buffer.add_char b ' '

(* [draws k f] renders [k] results of [f] on a fresh generator *)
let draws ?(seed = 23) ?(k = 2000) add f =
  let g = Prng.create seed in
  render (fun b ->
      for _ = 1 to k do
        add b (f g)
      done)

let add_int64 b x =
  Buffer.add_string b (Int64.to_string x);
  Buffer.add_char b ' '

let add_bool b x = Buffer.add_char b (if x then '1' else '0')

let add_array b a =
  Array.iter (add_int b) a;
  Buffer.add_char b '\n'

let graph_into b g =
  Array.iter
    (fun (u, v) ->
      add_int b u;
      add_int b v)
    (Graph.edges g);
  Buffer.add_char b '|';
  for u = 0 to Graph.node_count g - 1 do
    Array.iter
      (fun (v, e) ->
        add_int b v;
        add_int b e)
      (Graph.neighbors g u);
    Buffer.add_char b '\n'
  done

let graph_digest g = render (fun b -> graph_into b g)

let prefs_into b p =
  let g = Preference.graph p in
  for i = 0 to Graph.node_count g - 1 do
    add_int b (Preference.quota p i);
    add_array b (Preference.list p i);
    Graph.iter_neighbors g i (fun j _ -> add_int b (Preference.rank p i j));
    Buffer.add_char b '\n'
  done

let weights_into b p combiner =
  Array.iter (add_float b) (Weights.unsafe_weights (Weights.of_preference ~combiner p))

let check = Alcotest.(check string)

(* ---------------------------------------------------------------- *)
(* Prng *)

let test_prng_draws () =
  check "bits64" "06250bdd5b80740c8d0c702b045425eb" (draws add_int64 Prng.bits64);
  check "int pow2" "d96febaa35b9c1c7759eac0d0f845d3d" (draws add_int (fun g -> Prng.int g 1024));
  check "int odd" "ec9dd030eb33bd3e16ddcbbb57c2587b" (draws add_int (fun g -> Prng.int g 7));
  check "int near 2^61" "e6f0ed4c6fb05531d083b27b2c178ecd" (draws add_int (fun g -> Prng.int g ((1 lsl 61) + 1)));
  check "int_in" "3136901d8c0ff3adb0eef45a7d102040" (draws add_int (fun g -> Prng.int_in g (-5) 17));
  check "float" "a32f85e17a6bd733a304b49d05c0410d" (draws add_float (fun g -> Prng.float g 3.5));
  check "bool" "5f7cc1c6927bba6fc768abbc461bfa40" (draws add_bool Prng.bool);
  check "bernoulli" "36a895aea834e472a850cd571bd89693" (draws add_bool (fun g -> Prng.bernoulli g 0.3));
  check "exponential" "d91817fcbe772e5e9aa717e88326460c" (draws add_float (fun g -> Prng.exponential g 2.0));
  check "gaussian" "1d869c2dba28e858616fe70177387dcf" (draws add_float (fun g -> Prng.gaussian g ~mu:1.0 ~sigma:2.0))

(* the near-2^61 bound rejects every raw draw >= bound (about half), so
   the golden stream above does cover the rejection loop *)
let test_rejection_fires () =
  let bound = (1 lsl 61) + 1 in
  let g = Prng.create 23 and shadow = Prng.create 23 in
  let raw = ref 0 in
  for _ = 1 to 2000 do
    ignore (Prng.int g bound)
  done;
  (* replay raw draws on [shadow] until it reaches [g]'s state *)
  while
    !raw < 100_000
    && not (Int64.equal (Prng.bits64 (Prng.copy shadow)) (Prng.bits64 (Prng.copy g)))
  do
    ignore (Prng.bits64 shadow);
    incr raw
  done;
  Alcotest.(check bool) "rejections happened" true (!raw > 2500 && !raw < 100_000)

let test_prng_arrays () =
  check "shuffle_in_place" "b7433da68d2691acaee987590fab5362"
    (draws ~k:20 add_array (fun g ->
         let a = Array.init 100 Fun.id in
         Prng.shuffle_in_place g a;
         a));
  check "permutation" "5b526965b97c22918dd12196c9b32705" (draws ~k:20 add_array (fun g -> Prng.permutation g 50));
  check "sample sparse" "d2980ba117b5f8df48d3f2bc2c87a2a2"
    (draws ~k:20 add_array (fun g -> Prng.sample_without_replacement g 10 1000));
  check "sample dense" "77594f0cc9151d7c3d1d85019b0e1691"
    (draws ~k:20 add_array (fun g -> Prng.sample_without_replacement g 60 100));
  check "pick" "6252965a15745f99e1dd26de2824f71d" (draws add_int (fun g -> Prng.pick g [| 3; 1; 4; 1; 5; 9; 2 |]))

let test_prng_copy_split () =
  check "copy/split" "e55d538592730d2160da9a9e1a99ee86"
    (render (fun b ->
         let g = Prng.create 23 in
         for _ = 1 to 10 do
           let c = Prng.copy g in
           let s = Prng.split g in
           for _ = 1 to 5 do
             add_int64 b (Prng.bits64 c);
             add_int64 b (Prng.bits64 s);
             add_int64 b (Prng.bits64 g)
           done
         done))

(* ---------------------------------------------------------------- *)
(* Gen and Graph *)

let rng () = Prng.create 23

let test_gen () =
  let d = graph_digest in
  check "gnm sparse" "0f1e5dcfef801a6cc3ad72a225de2177" (d (Gen.gnm (rng ()) ~n:200 ~m:800));
  check "gnm dense" "5c9d205ff29e1a8e09c5372e7678e5e4" (d (Gen.gnm (rng ()) ~n:30 ~m:400));
  check "gnp" "faae499166fbfeba6df40b89666806c5" (d (Gen.gnp (rng ()) ~n:200 ~p:0.05));
  check "gnp p=1" "70a68a7bde0b5c1533e644f7f8cf9fd9" (d (Gen.gnp (rng ()) ~n:20 ~p:1.0));
  check "gnp p=0" "92f75bdf57a2c96d16e54e8371c42e37" (d (Gen.gnp (rng ()) ~n:10 ~p:0.0));
  check "complete" "315897195a1b2ecccbc471e91a11ea69" (d (Gen.complete 12));
  check "barabasi_albert" "a41f3abcace8672be812548d4dd101e6" (d (Gen.barabasi_albert (rng ()) ~n:200 ~m:3));
  check "watts_strogatz" "eee1c2430f8d9c52e8f81045af420e76" (d (Gen.watts_strogatz (rng ()) ~n:200 ~k:3 ~beta:0.2));
  check "random_geometric" "caa115d781cec1339dc00fcc9af33fdb"
    (let g, pts = Gen.random_geometric (rng ()) ~n:200 ~radius:0.1 in
     render (fun b ->
         graph_into b g;
         Array.iter
           (fun (x, y) ->
             add_float b x;
             add_float b y)
           pts));
  check "grid" "c1d9194869e8f1bb759fe447256a15a1" (d (Gen.grid ~width:7 ~height:5));
  check "torus" "0aedad60b4472e11ee65c414e61f9fad" (d (Gen.torus ~width:5 ~height:4));
  check "random_bipartite" "f57ca8e378d05399884386a139b0d958" (d (Gen.random_bipartite (rng ()) ~left:20 ~right:30 ~p:0.2));
  check "configuration_power_law" "a3b5572e4245c0dfce4d3b64299cdca3"
    (d (Gen.configuration_power_law (rng ()) ~n:200 ~exponent:2.5 ~min_degree:2));
  check "random_regular" "8a59035dd9f838a54e16edab5218fb45" (d (Gen.random_regular (rng ()) ~n:50 ~d:3));
  check "random_regular fallback" "00c583227944bb8550c21efc6fb2d0ab" (d (Gen.random_regular (rng ()) ~n:14 ~d:9));
  check "ring" "4b195d7b3eba9e11a675621f188e7d44" (d (Gen.ring 10));
  check "star" "4c0e4fbe803a00cc43fd9b81049f5d5a" (d (Gen.star 10));
  check "path" "26acd4b3c486222c5a0aedba8c16d3a9" (d (Gen.path 10))

let test_graph_constructors () =
  let pairs = [ (3, 1); (0, 4); (1, 3); (2, 0); (4, 0); (1, 2); (3, 1); (5, 4); (0, 5) ] in
  let g = Graph.of_edge_list 6 pairs in
  check "of_edge_list" "0d158b0d6c69ebea9a4311a085cc447c" (graph_digest g);
  let big = Gen.gnm (rng ()) ~n:100 ~m:600 in
  let sub, old = Graph.induced_subgraph big [| 17; 3; 99; 42; 0; 58; 71; 8; 64; 23; 5; 90 |] in
  check "induced_subgraph" "d2ebd6c4296044032997794de738dad2"
    (render (fun b ->
         graph_into b sub;
         add_array b old))

(* ---------------------------------------------------------------- *)
(* Preference and Weights *)

let mixed_quota g = Array.init (Graph.node_count g) (fun i -> i mod 5)

let test_preference_random () =
  let r = rng () in
  let g = Gen.gnm r ~n:300 ~m:1500 in
  let p = Preference.random r g ~quota:(mixed_quota g) in
  check "random prefs" "166ce542b615e24f29e98ce8956d0b0b" (render (fun b -> prefs_into b p));
  check "weights sum" "1f4a4908c1ca0b229d4af18607da2cef" (render (fun b -> weights_into b p Weights.Sum));
  check "weights min" "834aaa701e2efed7859cbf32c51511f8" (render (fun b -> weights_into b p Weights.Min));
  check "weights product" "3d618e8a1c400dcf7c6dbc58356c5f73" (render (fun b -> weights_into b p Weights.Product))

let test_preference_metric () =
  let g, pts = Gen.random_geometric (rng ()) ~n:200 ~radius:0.12 in
  let p = Preference.of_metric g ~quota:(mixed_quota g) (Metric.latency pts) in
  check "latency prefs" "cfd671e05f97e89cc3abe072beb4ea1b" (render (fun b -> prefs_into b p));
  let q = Preference.of_metric g ~quota:(Preference.uniform_quota g 3) (Metric.uniform ~seed:5) in
  check "uniform-metric prefs" "94daeef2281e6ff9b55a410544886ba1" (render (fun b -> prefs_into b q));
  check "metric weights sum" "8d6dfe8d139e4f5ca1619db114d683e8" (render (fun b -> weights_into b p Weights.Sum));
  check "metric weights min" "10d61f1188cd0e553f3dc83fb53284cf" (render (fun b -> weights_into b q Weights.Min));
  check "metric weights product" "3bd494882abccb531ce45b9921add2c0" (render (fun b -> weights_into b q Weights.Product))

(* the overlay-large benchmark instance: E23b at n = 5·10⁴, one stream *)
let test_overlay_large () =
  let r = Prng.create 23 in
  let g = Gen.gnm r ~n:50_000 ~m:400_000 in
  let p = Preference.random r g ~quota:(Preference.uniform_quota g 8) in
  check "graph" "90bd45cc77441c4776038303204783ab" (graph_digest g);
  check "prefs" "1697e6d3f745ef4b5c90df27ae6e385e" (render (fun b -> prefs_into b p));
  check "weights" "682b70685e944421ec88f690e361331a" (render (fun b -> weights_into b p Weights.Sum))

let suite =
  [
    Alcotest.test_case "prng draws" `Quick test_prng_draws;
    Alcotest.test_case "prng rejection fires" `Quick test_rejection_fires;
    Alcotest.test_case "prng arrays" `Quick test_prng_arrays;
    Alcotest.test_case "prng copy split" `Quick test_prng_copy_split;
    Alcotest.test_case "gen generators" `Quick test_gen;
    Alcotest.test_case "graph constructors" `Quick test_graph_constructors;
    Alcotest.test_case "preference random" `Quick test_preference_random;
    Alcotest.test_case "preference metric" `Quick test_preference_metric;
    Alcotest.test_case "overlay-large instance" `Quick test_overlay_large;
  ]
