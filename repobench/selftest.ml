(* Self-tests of the estimator and of the workloads' fixed work; none
   depends on timing.  Run: repobench selftest (from the repository
   root), or dune build @repobench/selftest. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let within_1pct name xs =
  let lo = List.fold_left min max_int xs and hi = List.fold_left max min_int xs in
  Printf.printf "     %s across seeds: %s\n" name (String.concat " " (List.map string_of_int xs));
  check (name ^ " agree within 1% across seeds") (float_of_int (hi - lo) <= 0.01 *. float_of_int hi)

let seeds = [ 1; 2; 3; 4; 5 ]

let percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  check "p50 needs 20 ops" (Measure.percentile 50. (xs 19) = None && Measure.percentile 50. (xs 20) = Some 10.);
  check "p90 needs 100 ops" (Measure.percentile 90. (xs 99) = None && Measure.percentile 90. (xs 100) = Some 90.);
  check "p99 needs 1000 ops" (Measure.percentile 99. (xs 999) = None && Measure.percentile 99. (xs 1000) = Some 990.)

let fastest_of_rounds () =
  let b = (Measure.bests 1).(0) in
  List.iteri (fun round dt -> Measure.record b ~round dt) [ 5.; 3.; 4.; 3.5 ];
  check "fastest of rounds" (b.Measure.fastest = 3. && b.Measure.repeats = 4 && b.Measure.at_round = 1);
  let spread rounds repeats =
    List.for_all
      (fun offset ->
        List.length (List.filter (Measure.runs_in_round ~rounds ~repeats ~offset) (List.init rounds Fun.id)) = repeats)
      (List.init rounds Fun.id)
  in
  check "each large op runs its fixed number of repeats" (spread 16 4 && spread 17 4 && spread 5 5)

(* The work of a round is fixed before it runs: a clock running 7x
   slow changes every timing and no op count. *)
let slowed_clock () =
  let order = Array.init 110 Fun.id in
  let count () =
    let r = Sim_figure.round_child ~traced:false ~seed:4242 ~order () in
    (Array.length r.Sim_figure.ops, Array.length r.Sim_figure.fits,
     Array.for_all (fun (o : Sim_figure.op) -> o.Sim_figure.error = None) r.Sim_figure.ops,
     Array.fold_left (fun a (o : Sim_figure.op) -> a + o.Sim_figure.counts.Sim_figure.uops) 0 r.Sim_figure.ops)
  in
  let normal = count () in
  let real = !Measure.clock in
  let t0 = real () in
  Measure.clock := (fun () -> t0 +. (7. *. (real () -. t0)));
  let slow = count () in
  Measure.clock := real;
  check "unchanged op count under a slowed clock" (normal = slow);
  check "rounds depend on --seconds only" (Measure.rounds_for ~seconds:10 ~per_second:0.7 = 7)

let sim_work () =
  within_1pct "sim-figure simulated uops"
    (List.map
       (fun seed ->
         let sweeps = Sim_figure.sweep_defs () in
         Array.fold_left
           (fun acc (t : Sim_figure.task) ->
             let c, _, _, _, _ =
               Sim_figure.simulate_decomposed sweeps.(t.Sim_figure.sweep).Sim_figure.profile
                 t.Sim_figure.platform ~seed:(1_000_000 + seed)
             in
             acc + c.Sim_figure.uops)
           0 (Sim_figure.tasks_of sweeps))
       seeds)

let verdict_work () =
  let small = Verdict_certify.strata "small" in
  let per_seed =
    List.map
      (fun seed ->
        let rng = Wmm_util.Rng.create (seed + 0x7e4d) in
        let picks = Array.of_list (List.map (fun _ -> Wmm_util.Rng.int rng 1_000_000) small) in
        let ops = Verdict_certify.setup ~picks in
        Array.fold_left
          (fun (e, m, b, f, st) ((o : Verdict_certify.op), s) ->
            match s with
            | None -> (e, m, b, f, st)
            | Some s ->
                let r = Verdicts.run o.Verdict_certify.model o.Verdict_certify.test in
                let states = Verdict_certify.checked_states o s in
                ( e + r.Verdicts.counts.Verdicts.explored,
                  m + r.Verdicts.outcomes,
                  b + r.Verdicts.bytes,
                  f + (if Verdicts.failed r then 1 else 0),
                  st + Option.value ~default:0 (Strata.states_of states) ))
          (0, 0, 0, 0, 0) ops)
      seeds
  in
  let per_seed = List.map (fun (e, m, b, f, st) -> ((e, m, b, f), st)) per_seed in
  within_1pct "verdict-certify machine states" (List.map snd per_seed);
  let per_seed = List.map fst per_seed in
  within_1pct "verdict-certify explored executions" (List.map (fun (e, _, _, _) -> e) per_seed);
  within_1pct "verdict-certify machine outcomes" (List.map (fun (_, m, _, _) -> m) per_seed);
  within_1pct "verdict-certify certificate bytes" (List.map (fun (_, _, b, _) -> b) per_seed);
  check "verdict-certify fails the same ops on every seed (the dmb ishld defect shows)"
    (List.for_all (fun (_, _, _, f) -> f > 0 && f = (let _, _, _, f0 = List.hd per_seed in f0)) per_seed);
  (* A round whose work counts differ from the first fails the run. *)
  let _, (o : Verdict_certify.op), _ =
    (0, fst (Verdict_certify.setup ~picks:(Array.make (List.length small) 0)).(0), ())
  in
  let first = Verdicts.run o.Verdict_certify.model o.Verdict_certify.test in
  let again = Verdicts.run o.Verdict_certify.model o.Verdict_certify.test in
  let more = { again with Verdicts.counts = { again.Verdicts.counts with Verdicts.explored = again.Verdicts.counts.Verdicts.explored + 1 } } in
  check "a repeat with the first round's work counts is accepted" (Verdict_certify.reproduces ~first again);
  check "a repeat with different work counts is rejected" (not (Verdict_certify.reproduces ~first more));
  check "a repeat with different certificate bytes is rejected"
    (not (Verdict_certify.reproduces ~first { again with Verdicts.bytes = again.Verdicts.bytes + 1 }))

let serve_work () =
  let per_seed =
    List.map
      (fun seed ->
        let requests, expected, states, mismatched = Serve_mix.prepare ~seed () in
        let fresh = Array.fold_left (fun n (r : Serve_mix.request) -> if r.Serve_mix.fresh then n + 1 else n) 0 requests in
        let outcomes = Array.fold_left (fun n (e : Serve_mix.expected) -> n + e.Serve_mix.total) 0 expected in
        (fresh, Array.length requests, (outcomes, states), mismatched))
      seeds
  in
  let classes = Strata.serve_classes in
  check
    (Printf.sprintf "serve-mix sends %d fresh of %d requests on every seed" classes (Serve_mix.sends * classes))
    (List.for_all (fun (f, n, _, _) -> f = classes && n = Serve_mix.sends * classes) per_seed);
  check "serve-mix draws match their recorded classes" (List.for_all (fun (_, _, _, m) -> m = []) per_seed);
  within_1pct "serve-mix machine outcomes" (List.map (fun (_, _, (o, _), _) -> o) per_seed);
  within_1pct "serve-mix machine states" (List.map (fun (_, _, (_, s), _) -> s) per_seed)

let run () =
  percentile_rule ();
  fastest_of_rounds ();
  slowed_clock ();
  sim_work ();
  verdict_work ();
  serve_work ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failures\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
