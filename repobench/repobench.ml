(* The repository benchmark.  Usage:

     repobench run --workload W --seed N --seconds S --trace 0|1
     repobench record W        rewrite W's recorded tables (sim-figure, or
                               verdict-certify, which also records the
                               equal-cost classes serve-mix draws from)
     repobench selftest        estimator and work-count self-tests

   `run` prints, as its last line, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics
   untraced, the per-layer metrics traced (and a Chrome trace under
   .repobench/).  python3 repobench/run.py builds and calls it. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("peak_rss_mb", "MB");
    ("light_ms_p50", "ms");
    ("light_ms_p90", "ms");
    ("heavy_ms_p50", "ms");
  ]

let per_layer =
  [
    ("generate.s", "s"); ("generate.uops", "count"); ("generate.ns_per_uop", "ns");
    ("perf.s", "s"); ("perf.muops_per_s", "Muops/s"); ("perf.uops_executed", "count");
    ("perf.wall_cycles", "cycles"); ("perf.bus_transactions", "count");
    ("perf.bus_wait_cycles", "cycles"); ("perf.fence_stall_cycles", "cycles");
    ("perf.release_stall_cycles", "cycles"); ("perf.l1_misses", "count");
    ("sensitivity.s", "s"); ("sensitivity.fits", "count"); ("sensitivity.converged", "count");
    ("engine.self_s", "s"); ("engine.tasks", "count");
    ("synth.s", "s"); ("compile.s", "s");
    ("relaxed.s.small", "s"); ("relaxed.s.large", "s"); ("relaxed.states", "count");
    ("enumerate.s.small", "s"); ("enumerate.s.large", "s"); ("enumerate.explored", "count");
    ("enumerate.consistent", "count"); ("enumerate.waste", "ratio");
    ("enumerate.revisits", "count"); ("enumerate.symmetry_skips", "count");
    ("enumerate.cutover_small", "count");
    ("emit.s.small", "s"); ("emit.s.large", "s"); ("emit.certs", "count");
    ("emit.declined", "count"); ("emit.bytes", "bytes");
    ("checker.s.small", "s"); ("checker.s.large", "s"); ("checker.mb_per_s", "MB/s");
    ("checker.accepted", "count"); ("checker.rejected", "count");
    ("client.hit_ms_p99", "ms"); ("client.compute_ms_p99", "ms");
    ("client.hit_wait_ms", "ms"); ("client.compute_wait_ms", "ms");
    ("server.requests", "count"); ("server.computed", "count");
    ("server.journal_hits", "count"); ("server.cache_hits", "count");
    ("server.dedup_joined", "count"); ("server.overloaded", "count");
    ("server.hit_wall_mean_us", "us"); ("server.compute_wall_mean_ms", "ms");
    ("server.max_pending", "count");
    ("cache.stores", "count"); ("cache.misses", "count");
    ("trace.overhead_s", "s"); ("trace.span_coverage", "ratio");
    ("host.ref_ms", "ms"); ("host.ref_ms_median", "ms");
  ]

let workloads = [ "sim-figure"; "verdict-certify"; "serve-mix" ]

(* Top-level spans must cover the traced wall to within this share. *)
let coverage_tolerance = 0.02

let out_dir = ".repobench"

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let run_workload ~workload ~seed ~seconds ~traced ~record =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Trace.enabled := traced;
  let correct, attempted, failed, e2e, layers, host, (t0, t1) =
    match workload with
    | "sim-figure" -> Sim_figure.run ~record ~seed ~seconds ~traced
    | "verdict-certify" -> Verdict_certify.run ~record ~seed ~seconds ~traced
    | "serve-mix" -> Serve_mix.run ~record ~seed ~seconds ~traced
    | w -> failwith ("unknown workload " ^ w)
  in
  let ref_min = Array.fold_left Float.min infinity host *. 1000. in
  let ref_med = Measure.median host *. 1000. in
  Measure.log "%s: host.ref_ms fastest %.3f median %.3f over %d rounds" workload ref_min ref_med
    (Array.length host);
  let spans = Trace.take () in
  let coverage = Trace.coverage spans ~t0 ~t1 in
  let coverage_ok = (not traced) || Float.abs (1. -. coverage) <= coverage_tolerance in
  if not coverage_ok then Measure.log "top-level spans cover %.4f of the traced wall" coverage;
  if traced then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s.json" workload) in
    Trace.write_chrome path spans;
    Measure.log "wrote %d spans to %s" (List.length spans) path
  end;
  let values =
    if traced then
      List.map
        (fun (name, unit_) ->
          let v =
            match name with
            | "host.ref_ms" -> ref_min
            | "host.ref_ms_median" -> ref_med
            | "trace.span_coverage" -> coverage
            | _ -> Option.value ~default:0. (List.assoc_opt name layers)
          in
          (name, v, unit_))
        per_layer
    else List.map (fun (name, unit_) -> (name, List.assoc name e2e, unit_)) end_to_end
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) values in
  List.iter (fun (n, v, _) -> if not (Float.is_finite v) then Measure.log "metric %s is %f" n v) values;
  let correct = correct && coverage_ok && finite in
  let values = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else -1.), u)) values in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          values))

let usage () =
  prerr_endline
    "usage: repobench run --workload W --seed N --seconds S --trace 0|1 | record sim-figure|verdict-certify | selftest";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
      let rec parse acc = function
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ();
      let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      let seconds = int "seconds" in
      if seconds < 1 then usage ();
      run_workload ~workload ~seed:(int "seed") ~seconds ~traced ~record:false
  | [ _; "record"; ("sim-figure" | "verdict-certify" as workload) ] ->
      run_workload ~workload ~seed:1 ~seconds:3 ~traced:false ~record:true
  | [ _; "selftest" ] -> Selftest.run ()
  | _ -> usage ()
