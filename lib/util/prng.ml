(* The xoshiro256** state is four 64-bit words s0..s3 at byte offsets 0,
   8, 16 and 24 of one 32-byte buffer.  Reads and writes go through
   [Bytes.get_int64_ne]/[set_int64_ne], which compile to plain unboxed
   loads and stores, so a draw whose int64 result is consumed in place
   (every bounded draw below) allocates nothing.  A record of four
   mutable [int64] fields would box a fresh value on every store. *)
type t = Bytes.t

(* SplitMix64: used only to expand a user seed into the 256-bit xoshiro
   state, as recommended by the xoshiro authors. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let g = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_ne g (8 * w) (splitmix_next state)
  done;
  g

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* one xoshiro256** step; inlined so the result stays unboxed *)
let[@inline] step g =
  let open Int64 in
  let s0 = Bytes.get_int64_ne g 0 and s1 = Bytes.get_int64_ne g 8 in
  let s2 = Bytes.get_int64_ne g 16 and s3 = Bytes.get_int64_ne g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 t in
  let s3 = rotl s3 45 in
  Bytes.set_int64_ne g 0 s0;
  Bytes.set_int64_ne g 8 s1;
  Bytes.set_int64_ne g 16 s2;
  Bytes.set_int64_ne g 24 s3;
  result

let bits64 g = step g

let split g =
  let seed = Int64.to_int (step g) in
  create (seed lxor 0x5851F42D)

(* 62 usable bits: OCaml ints are 63-bit, so taking 62 keeps the value
   non-negative after Int64.to_int *)
let[@inline] bits62 g = Int64.to_int (Int64.shift_right_logical (step g) 2)

(* Bounded int: mask at a power of two, otherwise reduce 62 random bits
   modulo [bound] and reject draws from the incomplete last block, which
   removes the modulo bias. *)
let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (step g) (Int64.of_int (bound - 1)))
  else begin
    let limit = max_int - bound + 1 in
    let r = ref (bits62 g) in
    while !r - (!r mod bound) > limit do
      r := bits62 g
    done;
    !r mod bound
  end

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

(* 53 random bits into [0,1).  Every float draw goes through this one
   helper; [float g bound] multiplies by [bound] last, and [x *. 1.0 = x]
   exactly, so the unit draws below equal [float g 1.0] bit for bit. *)
let[@inline] unit_float g =
  Int64.to_float (Int64.shift_right_logical (step g) 11) *. (1.0 /. 9007199254740992.0)

let float g bound = unit_float g *. bound

let bool g = Int64.to_int (step g) land 1 <> 0

let bernoulli g p = unit_float g < p

let exponential g mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. unit_float g in
  -.mean *. log u

let gaussian g ~mu ~sigma =
  let u1 = 1.0 -. unit_float g and u2 = unit_float g in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place g a;
  a

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  if 2 * k >= n then Array.sub (permutation g n) 0 k
  else begin
    (* hash-set based rejection sampling: fast when k << n *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int g n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))
