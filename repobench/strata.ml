(* Recording the equal-cost classes (data/strata.txt).  Every bound-6
   ARMv8/POWER7 synth verdict (15,042 of them) is run once; verdicts
   whose deterministic signature (verdict, machine outcomes and visited
   states, certificate claim, every exploration counter) is identical form
   one class, so drawing any member costs the same work.  The
   size-stratified sample takes classes with at least two members,
   evenly spaced by explored executions, and keeps classes whose
   members the machine gets wrong (the dmb ishld defect): those count
   as failed ops on every run. *)

open Wmm_isa
open Wmm_model
open Wmm_litmus
module Synth = Wmm_synth.Synth

let small_classes = 200
let serve_classes = 60
let min_unsound = 2

(* Serve-mix draws only programs whose machine enumeration visits at
   least this many states (about 2 ms of compute on the reference
   host): a fresh request also stores two cache files, whose latency
   follows the host's disk (0.05 to 1 ms each), and on cheaper
   programs those stores made up most of the request. *)
let serve_min_states = 350

(* The machine reports no count of the states it visits while
   enumerating a program's final states, but Relaxed.enumerate fails
   once it has visited more than [max_states]: the count is the
   smallest bound under which it completes. *)
let completes config program n =
  match Wmm_machine.Relaxed.enumerate ~max_states:n config program with
  | _ -> true
  | exception Failure _ -> false

let machine_states config program =
  let rec search lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if completes config program mid then search lo mid else search mid hi
  in
  search 0 500_000

(* Whether the machine visits exactly [n] states: two enumerations
   instead of a search, cheap enough to check every drawn member. *)
let visits config program n = completes config program n && not (completes config program (n - 1))

let states_field n = Printf.sprintf "states=%d" n

(* The recorded state count of a class signature. *)
let states_of signature =
  List.find_map
    (fun f -> match String.split_on_char '=' f with [ "states"; n ] -> int_of_string_opt n | _ -> None)
    (String.split_on_char '|' signature)

(* A served request checks one verdict without certifying it.  Most of
   its cost is the machine's state enumeration, which final outcomes
   do not measure (members of one outcome class differed by up to 4x),
   so the visited states are part of the class; the cost also grows
   with the program text the daemon parses and digests. *)
let served_signature ?expect model ~text (test : Test.t) =
  let config = Verdicts.config_for model in
  let s0 = Enumerate.global_stats () in
  let v = Check.run_exhaustive model config test in
  let c = Verdicts.diff s0 (Enumerate.global_stats ()) in
  let program = test.Test.program in
  let states =
    match expect with
    | Some n -> if visits config program n then n else -1
    | None -> machine_states config program
  in
  ( Check.sound v,
    c.Verdicts.explored,
    states,
    Printf.sprintf
      "text_bytes=%d|allowed=%b|observed=%b|sound=%b|outcomes=%d|states=%d|explored=%d|consistent=%d|cutover_small=%d"
      (String.length text) v.Check.axiomatic_allowed v.Check.observed (Check.sound v) v.Check.total states
      c.Verdicts.explored c.Verdicts.consistent c.Verdicts.cutover_small )

(* Group (model, signature) -> members, keeping first-seen order. *)
let group entries =
  let tbl = Hashtbl.create 1024 and order = ref [] in
  List.iter
    (fun (model, sound, explored, signature, member) ->
      let k = (model, signature) in
      match Hashtbl.find_opt tbl k with
      | Some (s, e, ms) -> Hashtbl.replace tbl k (s, e, member :: ms)
      | None ->
          Hashtbl.replace tbl k (sound, explored, [ member ]);
          order := k :: !order)
    entries;
  List.rev_map
    (fun ((model, signature) as k) ->
      let sound, explored, ms = Hashtbl.find tbl k in
      (model, signature, sound, explored, List.rev ms))
    !order

(* [count] classes with >= 2 members, evenly spaced by explored
   executions, at least [min_unsound] of them unsound when any are. *)
let pick count classes =
  let eligible = List.filter (fun (_, _, _, _, ms) -> List.length ms >= 2) classes in
  let sorted =
    Array.of_list
      (List.stable_sort (fun (_, _, _, e1, _) (_, _, _, e2, _) -> compare e1 e2) eligible)
  in
  let n = Array.length sorted in
  Measure.log "strata: picking %d of %d classes with two or more members" (min count n) n;
  let chosen = Hashtbl.create count in
  for i = 0 to min count n - 1 do
    Hashtbl.replace chosen (i * n / min count n) ()
  done;
  let unsound = List.filter (fun i -> let _, _, s, _, _ = sorted.(i) in not s) (List.init n Fun.id) in
  let have = List.length (List.filter (Hashtbl.mem chosen) unsound) in
  let missing = List.filter (fun i -> not (Hashtbl.mem chosen i)) unsound in
  List.iteri
    (fun j i ->
      if have + j < min_unsound then begin
        (* Replace the nearest chosen sound class. *)
        let rec nearest d =
          let try_at k = k >= 0 && k < n && Hashtbl.mem chosen k && (let _, _, s, _, _ = sorted.(k) in s) in
          if try_at (i - d) then i - d else if try_at (i + d) then i + d else nearest (d + 1)
        in
        Hashtbl.remove chosen (nearest 1);
        Hashtbl.replace chosen i ()
      end)
    missing;
  List.filter_map (fun i -> if Hashtbl.mem chosen i then Some sorted.(i) else None) (List.init n Fun.id)

let lines kind picked =
  List.mapi
    (fun i (model, signature, _, _, members) ->
      Printf.sprintf "%s:%03d|model=%s|%s|members=%s" kind i (Axiomatic.model_name model) signature
        (String.concat "," members))
    picked

let record () =
  let small = ref [] and served = ref [] in
  List.iter
    (fun arch ->
      List.iter
        (fun (g : Synth.generated) ->
          let t = g.Synth.g_test in
          let member = Arch.name arch ^ "/" ^ t.Test.name in
          List.iter
            (fun model ->
              let r = Verdicts.run model t in
              let states = machine_states (Verdicts.config_for model) t.Test.program in
              small :=
                ( model,
                  r.Verdicts.sound,
                  r.Verdicts.counts.Verdicts.explored,
                  Verdicts.signature r ^ "|" ^ states_field states,
                  member )
                :: !small)
            (Synth.verdict_models arch);
          (* Served as program text: only tests whose text parses back. *)
          let model = Axiomatic.model_for_arch arch in
          let text = Parse.to_text ~arch t in
          match Parse.parse text with
          | Error _ -> ()
          | Ok p ->
              let sound, explored, states, signature = served_signature model ~text p.Parse.test in
              if states >= serve_min_states then
                served := (model, sound, explored, signature, member) :: !served)
        (Synth.generate arch))
    [ Arch.Armv8; Arch.Power7 ];
  let small = group (List.rev !small) and served = group (List.rev !served) in
  let unsound l = List.length (List.filter (fun (_, _, s, _, _) -> not s) l) in
  Measure.log "strata: %d verdict classes (%d unsound), %d served classes (%d unsound)"
    (List.length small) (unsound small) (List.length served) (unsound served);
  Tables.write "strata"
    ~header:
      [
        "Equal-cost classes of bound-6 synth verdicts: <kind>:<id>|model|signature|members.";
        "small: verdict-certify draws one member per class; serve: serve-mix draws one fresh program per class.";
        "Rewrite with: repobench record verdict-certify";
      ]
    (lines "small" (pick small_classes small) @ lines "serve" (pick serve_classes served))
