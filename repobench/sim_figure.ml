(* Workload sim-figure: the Fig. 5 sweeps (8 DaCapo profiles x ARMv8 /
   POWER7) and the Fig. 9 read_barrier_depends sweeps (6 kernel
   subjects), each a nop base plus the fast-mode cost sizes
   4/32/128/512: 110 sample tasks.  One op is one sample task with one
   sample, run as an engine task the way the figures run it, at 1/10 of
   each profile's units_per_thread.  Every round draws fresh sample
   seeds; after the samples, each sweep is fitted by
   Sensitivity.fit_k (22 fit ops). *)

open Wmm_isa
open Wmm_util
open Wmm_machine
open Wmm_workload
open Wmm_core
module Exp = Wmm_experiments.Exp_common
module Engine = Wmm_engine.Engine
module Task = Wmm_engine.Task
module Cost_function = Wmm_costfn.Cost_function

let units_divisor = 10
let cost_sizes = [ 4; 32; 128; 512 ]

(* The seed Experiment.sweep_deferred gives a one-sample task: seed 11
   after the two discarded warm-up seeds. *)
let canonical_seed = 11 + (2 * 1009)

type sweep_def = {
  s_name : string;
  arch : Arch.t;
  light : bool;
  code_path : string;
  profile : Profile.t;
  base : Generate.platform;
  inject : Cost_function.t -> Generate.platform;
}

type task = { label : string; sweep : int; size : int option; platform : Generate.platform }

let scaled (p : Profile.t) =
  { p with Profile.units_per_thread = max 1 (p.Profile.units_per_thread / units_divisor) }

let sweep_defs () =
  let fig5 =
    List.concat_map
      (fun arch ->
        List.map
          (fun p ->
            {
              s_name = Printf.sprintf "fig5/%s/%s" p.Profile.name (Arch.name arch);
              arch;
              light = Exp.light_for arch;
              code_path = "all elemental barriers";
              profile = scaled p;
              base = Exp.jvm_nop_base arch;
              inject = (fun cf -> Exp.jvm_platform ~inject_all:[ Cost_function.uop cf ] arch);
            })
          Dacapo.all)
      Arch.all
  in
  let arch = Arch.Armv8 in
  let fig9 =
    List.map
      (fun (p : Profile.t) ->
        let rbd uop = Exp.kernel_platform ~inject:[ (Wmm_platform.Kernel.Read_barrier_depends, [ uop ]) ] arch in
        {
          s_name = Printf.sprintf "fig9/%s/%s" p.Profile.name (Arch.name arch);
          arch;
          light = false;
          code_path = "read_barrier_depends";
          profile = scaled p;
          base = rbd (Exp.nop_uop arch ~light:false);
          inject = (fun cf -> rbd (Cost_function.uop cf));
        })
      (Wmm_experiments.Rbd.subjects ())
  in
  Array.of_list (fig5 @ fig9)

let tasks_of sweeps =
  Array.of_list
    (List.concat
       (List.mapi
          (fun i s ->
            { label = s.s_name ^ "/base"; sweep = i; size = None; platform = s.base }
            :: List.map
                 (fun n ->
                   {
                     label = Printf.sprintf "%s/n=%d" s.s_name n;
                     sweep = i;
                     size = Some n;
                     platform = s.inject (Cost_function.make ~light:s.light s.arch n);
                   })
                 cost_sizes)
          (Array.to_list sweeps)))

(* Set-up: the platforms and the sample requests of one round. *)
let setup ~seed =
  let sweeps = sweep_defs () in
  let tasks = tasks_of sweeps in
  let keys =
    Array.map
      (fun t ->
        Experiment.sample_key
          (Experiment.sample_request ~samples:1 ~warmups:0 ~seed ~label:t.label
             sweeps.(t.sweep).profile t.platform))
      tasks
  in
  (sweeps, tasks, keys)

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type counts = {
  uops : int;
  gen_uops : int;
  wall_cycles : int;
  bus_tx : int;
  bus_wait : int;
  fence_stall : int;
  release_stall : int;
  l1_misses : int;
}

let zero =
  { uops = 0; gen_uops = 0; wall_cycles = 0; bus_tx = 0; bus_wait = 0; fence_stall = 0;
    release_stall = 0; l1_misses = 0 }

let add c (s : Perf.stats) ~streams =
  {
    uops = c.uops + s.Perf.uops_executed;
    gen_uops = c.gen_uops + Array.fold_left (fun n a -> n + Array.length a) 0 streams;
    wall_cycles = c.wall_cycles + s.Perf.wall_cycles;
    bus_tx = c.bus_tx + s.Perf.bus_transactions;
    bus_wait = c.bus_wait + s.Perf.bus_wait_cycles;
    fence_stall = c.fence_stall + s.Perf.fence_stall_cycles;
    release_stall = c.release_stall + s.Perf.release_stall_cycles;
    l1_misses = c.l1_misses + s.Perf.l1_misses;
  }

type layers = { generate_s : float; perf_s : float; task_s : float }

type op = {
  dt : float;
  value : float;  (** Performance value; higher is better. *)
  counts : counts;
  layers : layers option;  (** Traced rounds only. *)
  error : string option;
}

let value_of (p : Profile.t) (r : Bench_runner.result) =
  match Experiment.measure_of_profile p with
  | Experiment.Throughput -> r.Bench_runner.throughput
  | _ -> 1. /. r.Bench_runner.response_mean_ns

(* The simulation Bench_runner.run performs, decomposed into its
   Generate.streams and Perf.run calls so each can be spanned: one run
   for throughput profiles; for response-mode ones the per-request
   mini-runs and the final single-unit run. *)
let simulate_decomposed (p : Profile.t) platform ~seed =
  let arch = Generate.platform_arch platform in
  let gen = ref 0. and perf = ref 0. in
  let one c ~units ~seed =
    let streams, g =
      Measure.timed (fun () ->
          Trace.span "Generate.streams" (fun () ->
              Generate.streams ~units_override:units p platform ~seed))
    in
    let config = Perf.config ~seed ~cores:(max 1 (Array.length streams)) arch in
    let stats, q = Measure.timed (fun () -> Trace.span "Perf.run" (fun () -> Perf.run config streams)) in
    gen := !gen +. g;
    perf := !perf +. q;
    (add c stats ~streams, stats, Perf.wall_ns config stats)
  in
  let threads = float_of_int (Profile.effective_threads p arch) in
  (* The performance value without Bench_runner's run-level noise:
     enough to give the traced fits realistic inputs. *)
  let counts, last, value =
    match p.Profile.measurement with
    | Profile.Throughput ->
        let c, s, ns = one zero ~units:p.Profile.units_per_thread ~seed in
        (c, s, threads *. float_of_int p.Profile.units_per_thread /. (ns /. 1000.))
    | Profile.Response requests ->
        let units = max 1 (p.Profile.units_per_thread / requests) in
        let c = ref zero and total = ref 0. in
        for i = 0 to requests - 1 do
          let c', _, ns = one !c ~units ~seed:(seed + (i * 131)) in
          c := c';
          total := !total +. ns
        done;
        let c, s, _ = one !c ~units:1 ~seed in
        (c, s, float_of_int requests /. !total)
  in
  (counts, last, value, !gen, !perf)

let run_op engine ~traced (p : Profile.t) (t : task) ~key ~seed =
  let task_s = ref 0. in
  let body () =
    if traced then begin
      let t0 = Measure.now () in
      let r = simulate_decomposed p t.platform ~seed in
      task_s := Measure.now () -. t0;
      `Traced r
    end
    else `Plain (Bench_runner.run p t.platform ~seed)
  in
  let outcome, dt =
    Measure.timed (fun () ->
        Trace.span ~args:[ ("task", t.label) ] "Engine.run" (fun () ->
            Engine.run engine (Task.pure ~key ~label:t.label body)))
  in
  match Engine.value outcome with
  | Error msg -> { dt; value = nan; counts = zero; layers = None; error = Some msg }
  | Ok (`Plain r) ->
      let s = r.Bench_runner.stats in
      { dt; value = value_of p r; counts = add zero s ~streams:[||]; layers = None; error = None }
  | Ok (`Traced (counts, _, value, g, q)) ->
      { dt; value; counts; layers = Some { generate_s = g; perf_s = q; task_s = !task_s }; error = None }

type fit_op = { fit_dt : float; converged : bool; fit_ok : bool }

(* Sweep fit from one round's samples, as Experiment assembles it. *)
let fit_sweep (s : sweep_def) (base : op) (points : (int * op) list) =
  Trace.span ~args:[ ("sweep", s.s_name) ] "Sensitivity.fit_k" (fun () ->
      let bs = Stats.summarise [| base.value |] in
      let xs =
        Array.of_list
          (List.map (fun (n, _) -> Cost_function.standalone_ns (Cost_function.make ~light:s.light s.arch n)) points)
      in
      let ys =
        Array.of_list
          (List.map
             (fun (_, o) ->
               (Stats.ratio_summary ~test:(Stats.summarise [| o.value |]) ~base:bs).Stats.gmean)
             points)
      in
      Sensitivity.fit_k ~xs ~ys)

type round = {
  setup_dt : float;
  keys : string array;
  ops : op array;
  fits : fit_op array;
  ref_dt : float;
  rss_mb : float;
  spans : Trace.span list;
}

let round_child ~traced ~seed ~order () =
  Trace.enabled := traced;
  let (sweeps, tasks, keys), setup_dt =
    Measure.timed (fun () -> Trace.span "setup" (fun () -> setup ~seed))
  in
  let engine = Engine.create ~jobs:1 () in
  let ops = Array.make (Array.length tasks) { dt = nan; value = nan; counts = zero; layers = None; error = None } in
  Array.iter
    (fun i ->
      let t = tasks.(i) in
      ops.(i) <- run_op engine ~traced sweeps.(t.sweep).profile t ~key:keys.(i) ~seed)
    order;
  let fits =
    Array.mapi
      (fun si s ->
        let mine = List.filter (fun i -> tasks.(i).sweep = si) (List.init (Array.length tasks) Fun.id) in
        let base = List.find (fun i -> tasks.(i).size = None) mine in
        let points = List.filter_map (fun i -> Option.map (fun n -> (n, ops.(i))) tasks.(i).size) mine in
        let fit, fit_dt = Measure.timed (fun () -> fit_sweep s ops.(base) points) in
        { fit_dt; converged = fit.Sensitivity.converged; fit_ok = Float.is_finite fit.Sensitivity.k })
      sweeps
  in
  let ref_dt = Trace.span "host.reference_loop" Measure.reference_loop in
  {
    setup_dt;
    keys = Array.map (fun t -> t.label) tasks;
    ops;
    fits;
    ref_dt;
    rss_mb = Measure.peak_rss_mb None;
    spans = Trace.take ();
  }

(* ------------------------------------------------------------------ *)
(* Correctness: the canonical-seed figure, checked against its table  *)
(* ------------------------------------------------------------------ *)

let table = "sim-figure"

(* One line per task (Perf counters and value at the canonical seed)
   and per sweep (fitted k, its error, convergence and every point's
   gmean, bit for bit) from the figure path: Experiment.sweep_deferred
   over one engine batch.  Also returns disagreements between that
   path and the benchmark's own per-round assembly. *)
let check_child ~traced () =
  let sweeps = sweep_defs () in
  let tasks = tasks_of sweeps in
  let values = Array.make (Array.length tasks) nan in
  let problems = ref [] in
  let task_lines =
    Array.to_list
      (Array.mapi
         (fun i t ->
           let p = sweeps.(t.sweep).profile in
           let r = Bench_runner.run p t.platform ~seed:canonical_seed in
           let s = r.Bench_runner.stats in
           values.(i) <- value_of p r;
           if traced then begin
             let _, last, _, _, _ = simulate_decomposed p t.platform ~seed:canonical_seed in
             if last <> s then problems := ("decomposed simulation differs on " ^ t.label) :: !problems
           end;
           Printf.sprintf "task:%s|uops=%d|wall_cycles=%d|bus=%d|fence_stall=%d|value=%s" t.label
             s.Perf.uops_executed s.Perf.wall_cycles s.Perf.bus_transactions
             s.Perf.fence_stall_cycles (Tables.hex values.(i)))
         tasks)
  in
  let engine = Engine.create ~jobs:1 () in
  let batch = Experiment.batch () in
  let pending =
    Array.map
      (fun s ->
        Experiment.sweep_deferred batch ~samples:1 ~light:s.light ~iteration_counts:cost_sizes
          ~code_path:s.code_path ~base:s.base ~inject:s.inject s.profile)
      sweeps
  in
  Experiment.run_batch engine batch;
  let sweep_lines =
    Array.to_list
      (Array.mapi
         (fun si finish ->
           let (sw : Experiment.sweep) = finish () in
           let fit = sw.Experiment.fit in
           let mine = List.filter (fun i -> tasks.(i).sweep = si) (List.init (Array.length tasks) Fun.id) in
           let op i = { dt = 0.; value = values.(i); counts = zero; layers = None; error = None } in
           let base = List.find (fun i -> tasks.(i).size = None) mine in
           let points = List.filter_map (fun i -> Option.map (fun n -> (n, op i)) tasks.(i).size) mine in
           let own = fit_sweep sweeps.(si) (op base) points in
           if Tables.hex own.Sensitivity.k <> Tables.hex fit.Sensitivity.k then
             problems := ("per-round fit differs from Experiment's on " ^ sweeps.(si).s_name) :: !problems;
           Printf.sprintf "sweep:%s|k=%s|k_error=%s|converged=%b|gmeans=%s" sweeps.(si).s_name
             (Tables.hex fit.Sensitivity.k)
             (Tables.hex fit.Sensitivity.k_error_percent)
             fit.Sensitivity.converged
             (String.concat ","
                (List.map
                   (fun (pt : Experiment.sweep_point) -> Tables.hex pt.Experiment.relative.Stats.gmean)
                   sw.Experiment.points)))
         pending)
  in
  (task_lines @ sweep_lines, List.rev !problems)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type acc = {
  best : Measure.best array;
  at_best : op option array;
  fit_best : Measure.best array;
  fit_at_best : fit_op option array;
}

let acc n s =
  { best = Measure.bests n; at_best = Array.make n None; fit_best = Measure.bests s; fit_at_best = Array.make s None }

let absorb a ~round (res : round) =
  Array.iteri
    (fun i (o : op) ->
      let prev = a.best.(i).Measure.fastest in
      Measure.record a.best.(i) ~round o.dt;
      if o.dt < prev then a.at_best.(i) <- Some o)
    res.ops;
  Array.iteri
    (fun i (f : fit_op) ->
      let prev = a.fit_best.(i).Measure.fastest in
      Measure.record a.fit_best.(i) ~round f.fit_dt;
      if f.fit_dt < prev then a.fit_at_best.(i) <- Some f)
    res.fits

let fastest bs = Array.map (fun (b : Measure.best) -> b.Measure.fastest) bs

let run ~record ~seed ~seconds ~traced =
  let rounds = Measure.rounds_for ~seconds ~per_second:0.7 in
  let t_start = Measure.now () in
  let lines, problems =
    Trace.span ~top:true "check" (fun () -> Trace.in_child (check_child ~traced))
  in
  if record then Tables.write table ~header:[ "sim-figure outputs at the canonical seed; rewrite with: repobench record sim-figure" ] lines;
  let mismatched = Tables.mismatches ~table (Tables.read table) lines in
  List.iter (fun p -> Measure.log "sim-figure: %s" p) problems;
  let sweeps = sweep_defs () in
  let tasks = tasks_of sweeps in
  let n = Array.length tasks and ns = Array.length sweeps in
  let rng = Rng.create (seed + 0x5157) in
  let plain = acc n ns and traced_acc = acc n ns in
  let failed = Array.make (n + ns) false in
  let setups = ref [] and refs = ref [] and rss = ref [] and keys_ok = ref true in
  let expected_keys = Array.map (fun t -> t.label) tasks in
  for r = 0 to rounds - 1 do
    let seed_r = 1_000_000 + Rng.int rng 1_000_000_000 in
    let order = Array.init n Fun.id in
    Rng.shuffle_in_place rng order;
    let traced_round = traced && r mod 2 = 0 in
    let res =
      Trace.span ~top:true ~args:[ ("round", string_of_int r) ] "round" (fun () ->
          Trace.in_child (round_child ~traced:traced_round ~seed:seed_r ~order))
    in
    if !Trace.enabled then Trace.spans := List.rev_append res.spans !Trace.spans;
    if res.keys <> expected_keys then keys_ok := false;
    Array.iteri (fun i (o : op) -> if o.error <> None then failed.(i) <- true) res.ops;
    Array.iteri (fun i (f : fit_op) -> if not f.fit_ok then failed.(n + i) <- true) res.fits;
    absorb (if traced_round then traced_acc else plain) ~round:r res;
    setups := res.setup_dt :: !setups;
    refs := res.ref_dt :: !refs;
    rss := res.rss_mb :: !rss
  done;
  let t_end = Measure.now () in
  let failed_n = Array.fold_left (fun k b -> if b then k + 1 else k) 0 failed in
  let sample_s = fastest plain.best and fit_s = fastest plain.fit_best in
  let sweep_ms =
    Array.mapi
      (fun si _ ->
        let s = ref fit_s.(si) in
        Array.iteri (fun i t -> if t.sweep = si then s := !s +. sample_s.(i)) tasks;
        !s *. 1000.)
      sweeps
  in
  let ms xs = Array.map (fun x -> x *. 1000.) xs in
  let pct p xs = match Measure.percentile p xs with Some v -> v | None -> nan in
  let host = Array.of_list !refs in
  let e2e =
    [
      ("setup_s", Array.fold_left Float.min infinity (Array.of_list !setups));
      ("wall_s", Measure.sum sample_s +. Measure.sum fit_s);
      ("peak_rss_mb", List.fold_left Float.max 0. !rss);
      ("light_ms_p50", pct 50. (ms sample_s));
      ("light_ms_p90", pct 90. (ms sample_s));
      ("heavy_ms_p50", pct 50. sweep_ms);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let ops = Array.to_list (Array.map Option.get traced_acc.at_best) in
      let fits = Array.to_list (Array.map Option.get traced_acc.fit_at_best) in
      let lsum f = List.fold_left (fun a (o : op) -> a +. f (Option.get o.layers)) 0. ops in
      let csum f = float_of_int (List.fold_left (fun a (o : op) -> a + f o.counts) 0 ops) in
      let gen_s = lsum (fun l -> l.generate_s) and perf_s = lsum (fun l -> l.perf_s) in
      let uops = csum (fun c -> c.uops) and gen_uops = csum (fun c -> c.gen_uops) in
      let traced_wall = Measure.sum (fastest traced_acc.best) +. Measure.sum (fastest traced_acc.fit_best) in
      let plain_wall = Measure.sum sample_s +. Measure.sum fit_s in
      [
        ("generate.s", gen_s);
        ("generate.uops", gen_uops);
        ("generate.ns_per_uop", gen_s /. gen_uops *. 1e9);
        ("perf.s", perf_s);
        ("perf.muops_per_s", uops /. perf_s /. 1e6);
        ("perf.uops_executed", uops);
        ("perf.wall_cycles", csum (fun c -> c.wall_cycles));
        ("perf.bus_transactions", csum (fun c -> c.bus_tx));
        ("perf.bus_wait_cycles", csum (fun c -> c.bus_wait));
        ("perf.fence_stall_cycles", csum (fun c -> c.fence_stall));
        ("perf.release_stall_cycles", csum (fun c -> c.release_stall));
        ("perf.l1_misses", csum (fun c -> c.l1_misses));
        ("sensitivity.s", List.fold_left (fun a f -> a +. f.fit_dt) 0. fits);
        ("sensitivity.fits", float_of_int (List.length fits));
        ("sensitivity.converged", float_of_int (List.length (List.filter (fun f -> f.converged) fits)));
        ("engine.self_s", List.fold_left (fun a (o : op) -> a +. (o.dt -. (Option.get o.layers).task_s)) 0. ops);
        ("engine.tasks", float_of_int (List.length ops));
        ("trace.overhead_s", traced_wall -. plain_wall);
        ("trace.span_coverage", Trace.coverage !Trace.spans ~t0:t_start ~t1:t_end);
      ]
    end
  in
  let correct = mismatched = [] && problems = [] && !keys_ok in
  Measure.log "sim-figure: %d rounds, %d sample ops + %d fit ops, %d failed, %d table mismatches"
    rounds n ns failed_n (List.length mismatched);
  (correct, n + ns, failed_n, e2e, layers, host, (t_start, t_end))
