module Prng = Owp_util.Prng

let check = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check "different seeds diverge" true (!same < 4)

let test_copy_preserves_stream () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_split_diverges () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  check "split streams differ" true (!same < 4)

let test_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 10_000 do
    let bound = 1 + Prng.int g 100 in
    let v = Prng.int g bound in
    check "0 <= v < bound" true (v >= 0 && v < bound)
  done

let test_int_rejects_bad_bound () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_in_range () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in g (-5) 5 in
    check "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_int_covers_values () =
  let g = Prng.create 11 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g 10) <- true
  done;
  check "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let g = Prng.create 13 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 1.0 in
    check "0 <= v < 1" true (v >= 0.0 && v < 1.0)
  done

let test_float_mean () =
  let g = Prng.create 17 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g 1.0
  done;
  let mean = !acc /. float_of_int n in
  check "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_bernoulli_rate () =
  let g = Prng.create 19 in
  let hits = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_exponential_mean () =
  let g = Prng.create 23 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential g 2.0
  done;
  check "mean near 2.0" true (Float.abs ((!acc /. float_of_int n) -. 2.0) < 0.1)

let test_exponential_positive () =
  let g = Prng.create 29 in
  for _ = 1 to 1000 do
    check "positive" true (Prng.exponential g 1.0 >= 0.0)
  done

let test_gaussian_moments () =
  let g = Prng.create 31 in
  let n = 30_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian g ~mu:1.0 ~sigma:2.0 in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  check "mu" true (Float.abs (mean -. 1.0) < 0.05);
  check "sigma^2" true (Float.abs (var -. 4.0) < 0.2)

let test_shuffle_is_permutation () =
  let g = Prng.create 37 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_permutation_uniform_spot () =
  let g = Prng.create 41 in
  (* position of element 0 should be roughly uniform *)
  let counts = Array.make 5 0 in
  for _ = 1 to 5000 do
    let p = Prng.permutation g 5 in
    let pos = ref 0 in
    Array.iteri (fun i x -> if x = 0 then pos := i) p;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (c > 800 && c < 1200)) counts

let test_sample_without_replacement () =
  let g = Prng.create 43 in
  for _ = 1 to 200 do
    let k = Prng.int g 20 and n = 20 + Prng.int g 80 in
    let s = Prng.sample_without_replacement g k n in
    Alcotest.(check int) "size" k (Array.length s);
    let tbl = Hashtbl.create k in
    Array.iter
      (fun v ->
        check "range" true (v >= 0 && v < n);
        check "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.add tbl v ())
      s
  done

let test_sample_full_range () =
  let g = Prng.create 47 in
  let s = Prng.sample_without_replacement g 10 10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k = n is a permutation" (Array.init 10 Fun.id) sorted

let test_sample_invalid () =
  let g = Prng.create 53 in
  Alcotest.check_raises "k > n" (Invalid_argument "Prng.sample_without_replacement")
    (fun () -> ignore (Prng.sample_without_replacement g 11 10))

let test_pick () =
  let g = Prng.create 59 in
  let a = [| 5; 6; 7 |] in
  for _ = 1 to 100 do
    check "picked member" true (Array.mem (Prng.pick g a) a)
  done

(* Allocation contract: xoshiro's state lives in unboxed storage, so a
   draw whose result is an immediate value allocates nothing, and a float
   draw allocates only the box of the float it returns (2 words on a
   64-bit host).  Measured over 10^5 draws; the only other allocation in
   the window is the boxed counter read itself. *)
let draws = 100_000

let words_per_draw f =
  let g = Prng.create 61 in
  f g;
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    f g
  done;
  (Gc.minor_words () -. before) /. float_of_int draws

let check_words name ~max f =
  let w = words_per_draw f in
  if w > max +. 0.001 then
    Alcotest.failf "%s allocates %.3f minor words per draw (contract: %.0f)" name w max

let test_alloc_contract () =
  check_words "int pow2" ~max:0.0 (fun g -> ignore (Prng.int g 1024));
  check_words "int odd" ~max:0.0 (fun g -> ignore (Prng.int g 7));
  check_words "int near 2^61" ~max:0.0 (fun g -> ignore (Prng.int g ((1 lsl 61) + 1)));
  check_words "bool" ~max:0.0 (fun g -> ignore (Prng.bool g));
  check_words "bernoulli" ~max:0.0 (fun g -> ignore (Prng.bernoulli g 0.3));
  check_words "float" ~max:2.0 (fun g -> ignore (Prng.float g 1.0));
  check_words "exponential" ~max:2.0 (fun g -> ignore (Prng.exponential g 2.0))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy preserves stream" `Quick test_copy_preserves_stream;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "int_in range" `Quick test_int_in_range;
    Alcotest.test_case "int covers values" `Quick test_int_covers_values;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "permutation uniform spot" `Quick test_permutation_uniform_spot;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full range" `Quick test_sample_full_range;
    Alcotest.test_case "sample invalid" `Quick test_sample_invalid;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "allocation contract" `Quick test_alloc_contract;
  ]
