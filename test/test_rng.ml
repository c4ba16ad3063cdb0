open Wmm_util

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_does_not_advance () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy equals original" (Rng.int64 a) (Rng.int64 b)

let test_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits a) in
  let ys = List.init 20 (fun _ -> Rng.bits b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* The property the execution engine depends on: once split streams
   are derived, the order in which they are consumed - i.e. the order
   worker domains happen to schedule their tasks - cannot change any
   stream's output. *)
let test_split_order_independent () =
  let consume order =
    let root = Rng.create 99 in
    let streams = Array.init 4 (fun _ -> Rng.split root) in
    let out = Array.make 4 [] in
    List.iter (fun i -> out.(i) <- List.init 8 (fun _ -> Rng.int64 streams.(i))) order;
    out
  in
  let sequential = consume [ 0; 1; 2; 3 ] in
  let shuffled = consume [ 3; 1; 0; 2 ] in
  Array.iteri
    (fun i xs ->
      Alcotest.(check (list int64))
        (Printf.sprintf "stream %d identical under reordering" i)
        xs shuffled.(i))
    sequential

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_rejects_bad_bound () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_unit_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_uniform_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.unit_float rng
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mean:3. ~std:2.) in
  let mean = Stats.mean samples in
  let std = Stats.std samples in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.) < 0.1);
  Alcotest.(check bool) "std near 2" true (abs_float (std -. 2.) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.exponential rng ~rate:2.) in
  Alcotest.(check bool) "mean near 1/rate" true (abs_float (Stats.mean samples -. 0.5) < 0.02)

let test_pareto_positive () =
  let rng = Rng.create 19 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "at least scale" true (Rng.pareto rng ~shape:2. ~scale:1.5 >= 1.5)
  done

let test_lognormal_positive () =
  let rng = Rng.create 23 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

(* Known answers, recorded from the generator when its state was four
   mutable int64 record fields.  They pin the output itself, so a
   change of state representation is checked against values and not
   only against itself. *)
let kat_seed1 =
  [
    0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L;
    0x642e1c7bc266a3a7L; 0xb27a48e29a233673L; 0x24c123126ffda722L;
    0x123004ef8df510e6L; 0x61954dcc47b1e89dL; 0xddfdb48ab9ed4a21L;
    0x8d3cdb8c3aa5b1d0L; 0xeebd114bd87226d1L; 0xf50c3ff1e7d7e8a6L;
    0xeeca3115e23bc8f1L; 0xab49ed3db4c66435L; 0x99953c6c57808dd7L;
    0xe3fa941b05219325L;
  ]

let kat_seed42 =
  [
    0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
    0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
    0xb82154855a65ddb2L; 0xd99a2743ebe60087L; 0xc2e96e726e97647eL;
    0x9556615f775fbc3dL; 0xaeb53b340c103971L; 0x4a69db9873af8965L;
    0xcd0feda93006c6b6L; 0x52480865a4b42742L; 0xb60dec3bf2d887cdL;
    0xe0b55a68b96677faL;
  ]

let test_known_int64 () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create seed in
      let got = List.map (fun _ -> Rng.int64 rng) expected in
      Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) expected got)
    [ (1, kat_seed1); (42, kat_seed42) ]

let test_known_split () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  Alcotest.(check (list int64)) "child"
    [
    0x214c58958ca2a8a5L; 0x84a76abe9e4119dcL; 0xd9dd03480cc8f2e4L;
    0x6aa8bb77bb77649cL;
    ]
    (List.init 4 (fun _ -> Rng.int64 child));
  Alcotest.(check (list int64)) "parent after split"
    [ 0x475c3d964f482cd2L; 0xd6f1d349952c7996L ]
    (List.init 2 (fun _ -> Rng.int64 parent))

let test_known_int () =
  let rng = Rng.create 3 in
  let draw bound = List.init 12 (fun _ -> Rng.int rng bound) in
  Alcotest.(check (list int)) "bound 7" [ 1; 6; 1; 3; 4; 3; 6; 0; 0; 5; 6; 6 ] (draw 7);
  Alcotest.(check (list int)) "bound 4096"
    [ 2251; 3490; 507; 500; 3121; 2251; 859; 3704; 3285; 2175; 3127; 1342 ]
    (draw 4096)

let test_known_floats () =
  let rng = Rng.create 5 in
  let unit = List.init 6 (fun _ -> Rng.unit_float rng) in
  Alcotest.(check (list (float 0.))) "unit_float"
    [
    0x1.275545e329532p-2; 0x1.344422b49a4c4p-1; 0x1.4c916399e1777p-1;
    0x1.a4a23c41bd267p-1; 0x1.088eb9e33e31cp-1; 0x1.91ad1f9890cf5p-1;
    ]
    unit;
  (* Box-Muller goes through libm's log, sqrt and cos: allow a few ulps. *)
  let gauss = List.init 6 (fun _ -> Rng.gaussian rng ~mean:3. ~std:2.) in
  Alcotest.(check (list (float 1e-14))) "gaussian"
    [
    0x1.ebfd53bb112ap+1; 0x1.d2bff40dbcd1cp-1; 0x1.7ff2d0280333ap+1;
    0x1.6988d267bb7fp+1; 0x1.1ef4ab1aad1p+2; 0x1.e5523170259efp+1;
    ]
    gauss

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle_in_place rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_choose_member =
  QCheck.Test.make ~name:"choose returns a member" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 20) small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      List.mem (Rng.choose rng (Array.of_list l)) l)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "known int64 outputs" `Quick test_known_int64;
    Alcotest.test_case "known split child" `Quick test_known_split;
    Alcotest.test_case "known int draws" `Quick test_known_int;
    Alcotest.test_case "known float draws" `Quick test_known_floats;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy does not advance" `Quick test_copy_does_not_advance;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "split order independence" `Quick test_split_order_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_positive;
    Alcotest.test_case "lognormal support" `Quick test_lognormal_positive;
    QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
    QCheck_alcotest.to_alcotest prop_choose_member;
  ]
