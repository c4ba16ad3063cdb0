(* The xoshiro256** state words s0..s3 live in one 32-byte buffer,
   read and written as little-endian int64s.  Mutable [int64] record
   fields would box on every write, so each draw would allocate; the
   byte buffer keeps the words unboxed. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (i lsl 3) [@@inline]
let set t i v = Bytes.set_int64_le t (i lsl 3) v [@@inline]

(* splitmix64 is used only to expand the user seed into the four
   xoshiro256** state words, as recommended by the xoshiro authors:
   it guarantees the state is never all-zero and decorrelates nearby
   seeds. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k)) [@@inline]

let int64 t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let u = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 u);
  set t 3 (rotl s3 45);
  result
[@@inline]

let split t = of_seed64 (int64 t)

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

(* Rejection sampling removes modulo bias; the retry probability is
   negligible for the bounds used here.  A top-level loop, so a draw
   allocates no closure. *)
let rec int_below t bound limit =
  let r = bits t in
  let v = r mod bound in
  if r - v > limit then int_below t bound limit else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound ((max_int lsr 2) * 4 - bound)

let unit_float t =
  (* 53 high bits -> uniform double in [0, 1). *)
  let x = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float x *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let rec nonzero_unit_float t =
  let u = unit_float t in
  if u > 0. then u else nonzero_unit_float t

let gaussian t ~mean ~std =
  let u1 = nonzero_unit_float t in
  let u2 = unit_float t in
  mean +. (std *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (nonzero_unit_float t) /. rate

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Rng.pareto: parameters must be positive";
  scale /. (nonzero_unit_float t ** (1. /. shape))

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~std:sigma)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
