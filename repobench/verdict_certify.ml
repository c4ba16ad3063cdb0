(* Workload verdict-certify: certified verdicts (see Verdicts).

   Class small: library-44 under its annotated models (93 verdicts)
   plus one seeded draw from each of the recorded equal-cost classes
   of the bound-6 ARMv8/POWER7 synth families (data/strata.txt).
   Class large: 18 compiled lock-suite verdicts under all three
   schemes and the IRIW+3w and co-storm stress programs of
   bench/bench_explore.ml (see [large_locks]).  Small ops run in every
   round, each large op in half of them, alone in a fresh child. *)

open Wmm_isa
open Wmm_model
open Wmm_litmus
module Synth = Wmm_synth.Synth
module Locks = Wmm_lang.Locks
module Compile = Wmm_lang.Compile

type op = { key : string; test : Test.t; model : Axiomatic.model; large : bool }

let key_of (t : Test.t) model = t.Test.name ^ "@" ^ Axiomatic.model_name model

let st loc v = Instr.Store { src = Instr.Imm v; addr = Instr.Imm loc; order = Instr.Plain }
let ld r loc = Instr.Load { dst = r; addr = Instr.Imm loc; order = Instr.Plain }

(* The stress programs of bench/bench_explore.ml, with the classic
   non-multicopy-atomic IRIW outcome and, for co-storm, a reader that
   sees two writes in coherence order as their conditions.  Under
   RC11 both are allowed and go to the graph engine. *)
let iriw3 =
  Test.make ~name:"IRIW+3w" ~description:"IRIW with three writers per location"
    ~locations:[| "x"; "y" |]
    ~threads:
      [ [| st 0 1 |]; [| st 0 2 |]; [| st 0 3 |]; [| st 1 4 |]; [| st 1 5 |]; [| st 1 6 |];
        [| ld 0 0; ld 1 1 |]; [| ld 2 1; ld 3 0 |] ]
    ~condition:[ ((6, 0), 1); ((6, 1), 0); ((7, 2), 4); ((7, 3), 0) ]
    ~expected:[] ()

let co_storm =
  Test.make ~name:"co-storm" ~description:"six same-location writes, one reader"
    ~locations:[| "x" |]
    ~threads:[ [| st 0 1; st 0 2 |]; [| st 0 3; st 0 4 |]; [| st 0 5; st 0 6 |]; [| ld 0 0; ld 1 0 |] ]
    ~condition:[ ((3, 0), 1); ((3, 1), 2) ]
    ~expected:[] ()

let synth_population () =
  let tbl = Hashtbl.create 8192 in
  List.iter
    (fun arch ->
      List.iter
        (fun (g : Synth.generated) -> Hashtbl.replace tbl (Arch.name arch ^ "/" ^ g.Synth.g_test.Test.name) g.Synth.g_test)
        (Trace.span ~args:[ ("arch", Arch.name arch) ] "Synth.generate" (fun () -> Synth.generate arch)))
    [ Arch.Armv8; Arch.Power7 ];
  tbl

(* ------------------------------------------------------------------ *)
(* Equal-cost classes                                                  *)
(* ------------------------------------------------------------------ *)

type stratum = { id : string; model : Axiomatic.model; signature : string; members : string list }

let model_of_name n = List.find (fun m -> Axiomatic.model_name m = n) Axiomatic.all_models

(* "<kind>:<id>|model=M|<signature>|members=a,b,..." *)
let parse_stratum line =
  let fields = String.split_on_char '|' line in
  let kv f = match String.index_opt f '=' with Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)) | None -> (f, "") in
  let id = List.hd fields in
  let rest = List.tl fields in
  let model = model_of_name (List.assoc "model" (List.map kv rest)) in
  let members = String.split_on_char ',' (List.assoc "members" (List.map kv rest)) in
  let signature =
    String.concat "|"
      (List.filter (fun f -> let k, _ = kv f in k <> "model" && k <> "members") rest)
  in
  { id; model; signature; members }

let strata kind =
  List.filter_map
    (fun l ->
      if String.length l > String.length kind && String.sub l 0 (String.length kind + 1) = kind ^ ":" then
        Some (parse_stratum l)
      else None)
    (Tables.read "strata")

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let library_ops () =
  List.concat_map
    (fun (t : Test.t) ->
      List.filter_map
        (fun m ->
          if Test.expected_under t m <> None then Some { key = key_of t m; test = t; model = m; large = false }
          else None)
        Axiomatic.all_models)
    Library.all

(* The large class: compiled lock-suite verdicts as `lang rank`
   checks them (the lock at its default orders, or with one site
   weakened one step), under all three schemes, and the two stress
   programs.  Chosen so that one pass costs about 1.5 s and every large
   op repeats in half the rounds: the suite's forbidden verdicts with
   exhaustive certificates of 28-66 KB cost 0.1-0.5 s each (bakery
   2.6-10.8 s), too long to repeat often.  barrier under arm-native
   and barrier/count-read under power-sync reach states the model
   forbids, and count as failed ops. *)
let large_locks =
  [
    ("dekker", None, "arm-native"); ("dekker", None, "arm-fenced"); ("dekker", None, "power-sync");
    ("barrier", None, "arm-native"); ("barrier", None, "arm-fenced");
    ("filter", None, "arm-native"); ("peterson", None, "arm-native");
    ("cas-lock", Some "cas-read", "arm-native"); ("exchange", Some "xchg-read", "arm-native");
    ("cas-lock", Some "unlock", "arm-fenced"); ("exchange", Some "unlock", "arm-fenced");
    ("barrier", Some "sense-load", "arm-fenced"); ("peterson", Some "turn-store", "arm-fenced");
    ("cas-lock", Some "cas-read", "power-sync"); ("exchange", Some "xchg-read", "power-sync");
    ("peterson", Some "turn-store", "power-sync"); ("filter", Some "victim-store", "power-sync");
    ("barrier", Some "count-read", "power-sync");
  ]

let lock_test (name, site, scheme_name) =
  let l = Option.get (Locks.by_name name) in
  let scheme = Option.get (Compile.scheme_of_string scheme_name) in
  let orders = Array.copy l.Locks.defaults in
  (match site with
  | None -> ()
  | Some site ->
      Array.iteri
        (fun i (s, kind) ->
          if s = site then orders.(i) <- Option.get (Wmm_lang.Rank.weaker kind orders.(i)))
        l.Locks.sites);
  let t = Compile.compile_test scheme (l.Locks.build orders) in
  let name = match site with None -> t.Test.name | Some s -> Printf.sprintf "%s/%s@%s" name s scheme_name in
  ({ t with Test.name }, Axiomatic.model_for_arch (Compile.scheme_arch scheme))

let large_ops () =
  let locks = Trace.span "Compile.compile_test" (fun () -> List.map lock_test large_locks) in
  List.map
    (fun ((t : Test.t), m) -> { key = key_of t m; test = t; model = m; large = true })
    (locks @ [ (iriw3, Axiomatic.Rc11); (co_storm, Axiomatic.Rc11) ])

(* The op list of a run: library, one seeded member of every small
   stratum, the large ops; returned with the stratum each synth op was
   drawn from.  [picks] are the seeded member indices. *)
let setup ~picks =
  let population = Trace.span "synth" synth_population in
  let chosen =
    List.mapi
      (fun i s ->
        let name = List.nth s.members (picks.(i) mod List.length s.members) in
        let t = Hashtbl.find population name in
        ({ key = "synth/" ^ key_of t s.model; test = t; model = s.model; large = false }, Some s))
      (strata "small")
  in
  Array.of_list
    (List.map (fun o -> (o, None)) (library_ops ())
    @ chosen
    @ List.map (fun o -> (o, None)) (large_ops ()))

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type round = {
  setup_dt : float;
  synth_s : float;
  compile_s : float;
  keys : string array;
  results : (int * bool * Verdicts.result) list;
  ref_dt : float;
  rss_mb : float;
  spans : Trace.span list;
}

let span_total name spans =
  List.fold_left (fun a (s : Trace.span) -> if s.Trace.name = name then a +. (s.Trace.stop -. s.Trace.start) else a) 0. spans

(* [traced_op i] is [Some traced] when op [i] runs in this round.  In a
   traced run every op alternates between traced and untraced repeats,
   so the two can be compared within one process. *)
let round_child ~traced ~picks ~traced_op () =
  Trace.enabled := true;
  let ops, setup_dt = Measure.timed (fun () -> Trace.span "setup" (fun () -> setup ~picks)) in
  let setup_spans = !Trace.spans in
  let synth_s = span_total "synth" setup_spans and compile_s = span_total "Compile.compile_test" setup_spans in
  if not traced then ignore (Trace.take ());
  Gc.compact ();
  let results =
    List.filter_map
      (fun i ->
        let o, _ = ops.(i) in
        match traced_op i with
        | None -> None
        | Some t ->
            Trace.enabled := t;
            let v = Trace.span ~args:[ ("op", o.key) ] "verdict" (fun () -> Verdicts.run o.model o.test) in
            Some (i, t, v))
      (List.init (Array.length ops) Fun.id)
  in
  Trace.enabled := traced;
  let ref_dt = Trace.span "host.reference_loop" Measure.reference_loop in
  {
    setup_dt;
    synth_s;
    compile_s;
    keys = Array.map (fun (o, _) -> o.key) ops;
    results;
    ref_dt;
    rss_mb = Measure.peak_rss_mb None;
    spans = Trace.take ();
  }

(* Each repeat of a large op runs alone in a fresh child, from a
   compacted heap: its cost then depends neither on which other large
   ops share its round nor on their garbage. *)
let large_child ~traced (o : op) () =
  Gc.compact ();
  Trace.enabled := traced;
  let v = Trace.span ~args:[ ("op", o.key) ] "verdict" (fun () -> Verdicts.run o.model o.test) in
  (v, Measure.peak_rss_mb None, Trace.take ())

let large_repeat_share = 2

(* A repeat must reproduce the work counts of the op's first repeat:
   explored executions, machine outcomes and certificate bytes. *)
let reproduces ~first (v : Verdicts.result) = Verdicts.work first = Verdicts.work v

let stratum_line s signature = Printf.sprintf "small:%s|model=%s|%s" s.id (Axiomatic.model_name s.model) signature

(* The state count a small op's class records, if the machine visits
   exactly that many states for the op's program. *)
let checked_states (o : op) (s : stratum) =
  match Strata.states_of s.signature with
  | Some n when Strata.visits (Verdicts.config_for o.model) o.test.Test.program n -> "|" ^ Strata.states_field n
  | Some _ -> "|states=other"
  | None -> ""

let table_line key ~states (s : stratum option) (r : Verdicts.result) =
  match s with
  | Some s -> stratum_line s (Verdicts.signature r ^ states)
  | None -> Printf.sprintf "verdict:%s|%s" key (Verdicts.signature r)

let is_prefix p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p

let run ~record ~seed ~seconds ~traced =
  if record then Strata.record ();
  let rounds = Measure.rounds_for ~seconds ~per_second:0.55 in
  let large_repeats = max 2 (rounds / large_repeat_share) in
  let t_start = Measure.now () in
  let rng = Wmm_util.Rng.create (seed + 0x7e4d) in
  let small = strata "small" in
  let picks = Array.of_list (List.map (fun _ -> Wmm_util.Rng.int rng 1_000_000) small) in
  (* The op list and table lines come from a first, untimed child. *)
  let descr, states =
    Trace.span ~top:true "describe" (fun () ->
        Trace.in_child (fun () ->
            let ops = setup ~picks in
            ( Array.map (fun ((o : op), s) -> (o.key, o.large, Option.map (fun s -> s.id) s)) ops,
              Array.map (fun (o, s) -> Option.fold ~none:"" ~some:(checked_states o) s) ops )))
  in
  let n = Array.length descr in
  (* Ops run in one fixed order (small, then large) in every round and
     for every seed: ops that share shapes with earlier ops find the
     explorer's static contexts memoized, so an op's cost depends on
     what ran before it in its round. *)
  let large = Array.of_list (large_ops ()) in
  let n_large = Array.length large in
  let first_large = n - n_large in
  let runs_in r i =
    i < first_large
    || Measure.runs_in_round ~rounds ~repeats:large_repeats ~offset:((i - first_large) * rounds / n_large) r
  in
  let repeats = Array.make n 0 in
  let plain = Measure.bests n and traced_b = Measure.bests n in
  let at_best = Array.make n None in
  let first = Array.make n None in
  let failed = Array.make n false and unstable = ref [] in
  let lines = Array.make n "" in
  let setups = ref [] and refs = ref [] and rss = ref [] and keys_ok = ref true in
  let synth_best = ref infinity and compile_best = ref infinity in
  let expected_keys = Array.map (fun (k, _, _) -> k) descr in
  let strata_by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace strata_by_id s.id s) small;
  for r = 0 to rounds - 1 do
    let plan = Array.init n (fun i -> if runs_in r i then Some (traced && repeats.(i) mod 2 = 0) else None) in
    Array.iteri (fun i p -> if p <> None then repeats.(i) <- repeats.(i) + 1) plan;
    let small_plan i = if i < first_large then plan.(i) else None in
    let res =
      Trace.span ~top:true ~args:[ ("round", string_of_int r) ] "round" (fun () ->
          Trace.in_child (round_child ~traced ~picks ~traced_op:small_plan))
    in
    let large_results =
      List.filter_map
        (fun i ->
          match plan.(i) with
          | Some t when i >= first_large ->
              let o = large.(i - first_large) in
              let v, rss_mb, spans =
                Trace.span ~top:true ~args:[ ("op", o.key) ] "large op" (fun () ->
                    Trace.in_child (large_child ~traced:t o))
              in
              rss := rss_mb :: !rss;
              if !Trace.enabled then Trace.spans := List.rev_append spans !Trace.spans;
              if o.key <> expected_keys.(i) then keys_ok := false;
              Some (i, t, v)
          | _ -> None)
        (List.init n Fun.id)
    in
    let res = { res with results = res.results @ large_results } in
    if !Trace.enabled then Trace.spans := List.rev_append res.spans !Trace.spans;
    if res.keys <> expected_keys then keys_ok := false;
    setups := res.setup_dt :: !setups;
    synth_best := Float.min !synth_best res.synth_s;
    compile_best := Float.min !compile_best res.compile_s;
    refs := res.ref_dt :: !refs;
    rss := res.rss_mb :: !rss;
    List.iter
      (fun (i, traced_round, (v : Verdicts.result)) ->
        if Verdicts.failed v then failed.(i) <- true;
        (match first.(i) with
        | None ->
            first.(i) <- Some v;
            let key, _, sid = descr.(i) in
            lines.(i) <- table_line key ~states:states.(i) (Option.map (Hashtbl.find strata_by_id) sid) v
        | Some f ->
            if not (reproduces ~first:f v) then begin
              let key, _, _ = descr.(i) in
              unstable := key :: !unstable
            end);
        let b = if traced_round then traced_b.(i) else plain.(i) in
        let prev = b.Measure.fastest in
        Measure.record b ~round:r v.Verdicts.dt;
        if traced_round && v.Verdicts.dt < prev then at_best.(i) <- Some v)
      res.results
  done;
  let t_end = Measure.now () in
  let lines = Array.to_list lines in
  if record then
    Tables.write "verdicts"
      ~header:[ "verdict-certify library and large verdicts; rewrite with: repobench record verdict-certify" ]
      (List.filter (is_prefix "verdict:") lines);
  (* Members of a small stratum share its recorded signature. *)
  let recorded =
    Tables.read "verdicts" @ List.map (fun s -> stratum_line s s.signature) small
  in
  let mismatched = Tables.mismatches ~table:"verdicts" recorded lines in
  List.iter (fun k -> Measure.log "verdict-certify: %s did not reproduce its first round's work counts" k) !unstable;
  Array.iteri
    (fun i f -> if f then let key, _, _ = descr.(i) in Measure.log "verdict-certify: failed op %s" key)
    failed;
  let failed_n = Array.fold_left (fun k b -> if b then k + 1 else k) 0 failed in
  let fastest = Array.map (fun (b : Measure.best) -> b.Measure.fastest) plain in
  let cls large = Array.of_list (List.filter_map Fun.id (Array.to_list (Array.mapi (fun i (_, l, _) -> if l = large then Some (fastest.(i) *. 1000.) else None) descr))) in
  let pct p xs = match Measure.percentile p xs with Some v -> v | None -> nan in
  let e2e =
    [
      ("setup_s", Array.fold_left Float.min infinity (Array.of_list !setups));
      ("wall_s", Measure.sum fastest);
      ("peak_rss_mb", List.fold_left Float.max 0. !rss);
      ("light_ms_p50", pct 50. (cls false));
      ("light_ms_p90", pct 90. (cls false));
      ("heavy_ms_p50", pct 50. (cls true));
    ]
  in
  let layers =
    if not traced then []
    else begin
      let best = Array.to_list (Array.mapi (fun i v -> let _, l, _ = descr.(i) in (l, Option.get v)) at_best) in
      let sum_if large f = List.fold_left (fun a (l, v) -> if l = large then a +. f v else a) 0. best in
      let tot f = List.fold_left (fun a (_, v) -> a +. float_of_int (f v)) 0. best in
      let open Verdicts in
      let checker_s = sum_if false (fun v -> v.checker_s) +. sum_if true (fun v -> v.checker_s) in
      let explored = tot (fun v -> v.counts.explored) and consistent = tot (fun v -> v.counts.consistent) in
      let traced_wall = Measure.sum (Array.map (fun (b : Measure.best) -> b.Measure.fastest) traced_b) in
      [
        ("synth.s", !synth_best);
        ("compile.s", !compile_best);
        ("relaxed.s.small", sum_if false (fun v -> v.relaxed_s));
        ("relaxed.s.large", sum_if true (fun v -> v.relaxed_s));
        ("relaxed.states", tot (fun v -> v.outcomes));
        ("enumerate.s.small", sum_if false (fun v -> v.enumerate_s));
        ("enumerate.s.large", sum_if true (fun v -> v.enumerate_s));
        ("enumerate.explored", explored);
        ("enumerate.consistent", consistent);
        ("enumerate.waste", if consistent > 0. then explored /. consistent else 0.);
        ("enumerate.revisits", tot (fun v -> v.counts.revisits));
        ("enumerate.symmetry_skips", tot (fun v -> v.counts.symmetry_skips));
        ("enumerate.cutover_small", tot (fun v -> v.counts.cutover_small));
        ("emit.s.small", sum_if false (fun v -> v.emit_s));
        ("emit.s.large", sum_if true (fun v -> v.emit_s));
        ("emit.certs", tot (fun v -> if v.cert = Declined then 0 else 1));
        ("emit.declined", tot (fun v -> if v.cert = Declined then 1 else 0));
        ("emit.bytes", tot (fun v -> v.bytes));
        ("checker.s.small", sum_if false (fun v -> v.checker_s));
        ("checker.s.large", sum_if true (fun v -> v.checker_s));
        ("checker.mb_per_s", tot (fun v -> v.bytes) /. 1e6 /. checker_s);
        ("checker.accepted", tot (fun v -> match v.cert with Accepted _ -> 1 | _ -> 0));
        ("checker.rejected", tot (fun v -> match v.cert with Rejected _ -> 1 | _ -> 0));
        ("trace.overhead_s", traced_wall -. Measure.sum fastest);
      ]
    end
  in
  let correct = mismatched = [] && !unstable = [] && !keys_ok in
  Measure.log "verdict-certify: %d rounds (large ops %d each), %d ops (%d large), %d failed, %d table mismatches"
    rounds large_repeats n n_large failed_n (List.length mismatched);
  (correct, n, failed_n, e2e, layers, Array.of_list !refs, (t_start, t_end))
