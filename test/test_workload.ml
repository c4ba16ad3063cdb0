open Wmm_isa
open Wmm_machine
open Wmm_platform
open Wmm_workload

let arm_platform = Generate.Jvm_platform (Jvm.default Arch.Armv8)
let kernel_platform = Generate.Kernel_platform (Kernel.default Arch.Armv8)

let test_profiles_validate () =
  List.iter
    (fun (p : Profile.t) ->
      match Profile.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    (Dacapo.all @ Kernelbench.all @ Kernelbench.lmbench_parts)

let test_by_name () =
  Alcotest.(check bool) "spark found" true (Dacapo.by_name "spark" <> None);
  Alcotest.(check bool) "nonsense absent" true (Dacapo.by_name "nonsense" = None);
  Alcotest.(check bool) "lmbench part found" true
    (Kernelbench.by_name "lmbench_proc_fork" <> None)

let test_validate_catches_bad () =
  let bad = Profile.make ~threads:0 "bad" in
  Alcotest.(check bool) "rejected" true (Profile.validate bad <> Ok ())

let test_generate_deterministic () =
  let a = Generate.streams Dacapo.spark arm_platform ~seed:5 in
  let b = Generate.streams Dacapo.spark arm_platform ~seed:5 in
  Alcotest.(check bool) "same streams" true (a = b);
  let c = Generate.streams Dacapo.spark arm_platform ~seed:6 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_stream_scaling () =
  let small = Generate.streams ~units_override:10 Dacapo.h2 arm_platform ~seed:1 in
  let large = Generate.streams ~units_override:40 Dacapo.h2 arm_platform ~seed:1 in
  Alcotest.(check bool) "4x units -> roughly 4x uops" true
    (let s = Array.length small.(0) and l = Array.length large.(0) in
     l > 3 * s && l < 5 * s)

let test_thread_count_capped () =
  let streams = Generate.streams ~units_override:2 Dacapo.spark arm_platform ~seed:1 in
  Alcotest.(check int) "8 threads on 8-core arm" 8 (Array.length streams);
  let power = Generate.Jvm_platform (Jvm.default Arch.Power7) in
  let streams = Generate.streams ~units_override:2 Dacapo.spark power ~seed:1 in
  Alcotest.(check int) "spark profile threads on power" 8 (Array.length streams)

let test_kernel_streams_contain_macros () =
  let streams = Generate.streams ~units_override:50 Kernelbench.netperf_udp kernel_platform ~seed:2 in
  let has_fence =
    Array.exists (fun s -> Array.exists Uop.is_fence s) streams
  in
  Alcotest.(check bool) "kernel macros expanded to fences" true has_fence

let test_jvm_streams_contain_barriers () =
  let streams = Generate.streams ~units_override:50 Dacapo.spark arm_platform ~seed:2 in
  let count p = Array.fold_left (fun acc s -> acc + Array.length (Array.of_list (List.filter p (Array.to_list s)))) 0 streams in
  Alcotest.(check bool) "volatile traffic produces fences" true
    (count Uop.is_fence > 0);
  (* In acqrel mode the same profile produces ldar/stlr instead. *)
  let acqrel =
    Generate.Jvm_platform { (Jvm.default Arch.Armv8) with Jvm.mode = Jvm.Acqrel }
  in
  let streams' = Generate.streams ~units_override:50 Dacapo.spark acqrel ~seed:2 in
  let count' p = Array.fold_left (fun acc s -> acc + List.length (List.filter p (Array.to_list s))) 0 streams' in
  Alcotest.(check bool) "acqrel produces acquire/release accesses" true
    (count'
       (function Uop.Load_acquire _ | Uop.Store_release _ -> true | _ -> false)
    > 0)

let test_runner_throughput_positive () =
  let r = Bench_runner.run Dacapo.sunflow arm_platform ~seed:3 in
  Alcotest.(check bool) "throughput positive" true (r.Bench_runner.throughput > 0.);
  Alcotest.(check bool) "no response stats" true (Float.is_nan r.Bench_runner.response_mean_ns)

let test_response_mode () =
  let r = Bench_runner.run Kernelbench.osm_stack kernel_platform ~seed:3 in
  Alcotest.(check bool) "mean response positive" true (r.Bench_runner.response_mean_ns > 0.);
  Alcotest.(check bool) "max >= mean" true
    (r.Bench_runner.response_max_ns >= r.Bench_runner.response_mean_ns)

let test_noise_seeds_differ () =
  let a = Bench_runner.run Dacapo.tomcat arm_platform ~seed:1 in
  let b = Bench_runner.run Dacapo.tomcat arm_platform ~seed:2 in
  Alcotest.(check bool) "different seeds give different throughput" true
    (a.Bench_runner.throughput <> b.Bench_runner.throughput)

let test_quiet_profile_stable () =
  (* With quiet noise and the same seed, results are bit-identical. *)
  let quiet = { Dacapo.sunflow with Profile.noise = Profile.quiet } in
  let a = Bench_runner.run quiet arm_platform ~seed:9 in
  let b = Bench_runner.run quiet arm_platform ~seed:9 in
  Alcotest.(check (float 0.)) "identical" a.Bench_runner.throughput b.Bench_runner.throughput

let prop_share_ratio_bounds_locations =
  QCheck.Test.make ~name:"generated locations within layout" ~count:20
    QCheck.small_int (fun seed ->
      let p = { Dacapo.h2 with Profile.working_set = 64; shared_locations = 8 } in
      let streams = Generate.streams ~units_override:5 p arm_platform ~seed in
      let threads = Array.length streams in
      let bound = 8 + (threads * 64) in
      Array.for_all
        (fun stream ->
          Array.for_all
            (function
              | Uop.Load l | Uop.Store l | Uop.Load_acquire l | Uop.Store_release l ->
                  l >= 0 && l < bound
              | _ -> true)
            stream)
        streams)

(* The template generator against the list-based one it replaced, on
   every DaCapo and kernel profile, over nop-base and injected
   platforms of both JVM modes and every read_barrier_depends
   strategy.  Equal streams from equal seeds also pins the RNG draw
   order. *)
let reference_platforms =
  let module Exp = Wmm_experiments.Exp_common in
  let module Cf = Wmm_costfn.Cost_function in
  let jvm arch =
    let cf = Cf.uop (Cf.make ~light:(Exp.light_for arch) arch 32) in
    [
      Exp.jvm_nop_base arch;
      Exp.jvm_platform ~inject_all:[ cf ] arch;
      Exp.jvm_platform ~inject:[ (Barrier.Store_store, [ cf; Uop.Nops 2 ]) ] arch;
      Exp.jvm_platform ~overrides:[ (Barrier.Load_load, Uop.Fence_full) ] arch;
      Exp.jvm_platform ~mode:Jvm.Acqrel ~lock_patch:true ~inject_all:[ cf ] arch;
      Exp.jvm_platform ~mode:Jvm.Acqrel arch;
    ]
  in
  let kernel =
    let cf = Cf.uop (Cf.make Arch.Armv8 64) in
    Exp.kernel_nop_base Arch.Armv8
    :: Exp.kernel_platform ~inject_all:[ cf ] Arch.Armv8
    :: List.map
         (fun rbd ->
           Exp.kernel_platform ~rbd ~inject:[ (Kernel.Read_barrier_depends, [ cf ]) ] Arch.Armv8)
         Kernel.all_rbd_strategies
  in
  List.concat_map (fun arch -> List.map (fun pl -> (Dacapo.all, pl)) (jvm arch)) Arch.all
  @ List.map (fun pl -> (Kernelbench.all @ Kernelbench.lmbench_parts, pl)) kernel

let prop_generate_matches_reference =
  QCheck.Test.make ~name:"streams equal the list-based reference" ~count:20
    QCheck.(pair small_nat (int_range 1 6))
    (fun (seed, units) ->
      List.for_all
        (fun (profiles, platform) ->
          List.for_all
            (fun (p : Profile.t) ->
              Generate.streams ~units_override:units p platform ~seed
              = Generate_reference.streams ~units_override:units p platform ~seed)
            profiles)
        reference_platforms)

let suite =
  [
    Alcotest.test_case "profiles validate" `Quick test_profiles_validate;
    Alcotest.test_case "lookup by name" `Quick test_by_name;
    Alcotest.test_case "validate catches bad profiles" `Quick test_validate_catches_bad;
    Alcotest.test_case "deterministic generation" `Quick test_generate_deterministic;
    Alcotest.test_case "stream scaling" `Quick test_stream_scaling;
    Alcotest.test_case "thread capping" `Quick test_thread_count_capped;
    Alcotest.test_case "kernel streams have macros" `Quick test_kernel_streams_contain_macros;
    Alcotest.test_case "jvm streams have barriers" `Quick test_jvm_streams_contain_barriers;
    Alcotest.test_case "runner throughput" `Quick test_runner_throughput_positive;
    Alcotest.test_case "response mode" `Quick test_response_mode;
    Alcotest.test_case "noise varies with seed" `Quick test_noise_seeds_differ;
    Alcotest.test_case "quiet profile reproducible" `Quick test_quiet_profile_stable;
    QCheck_alcotest.to_alcotest prop_share_ratio_bounds_locations;
    QCheck_alcotest.to_alcotest prop_generate_matches_reference;
  ]
