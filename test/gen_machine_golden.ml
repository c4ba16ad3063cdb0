(* Regenerates test/data/machine_golden.txt: what the operational
   machine reaches and how much of its state space it visits.  For
   every library test under the SC, TSO and relaxed machine configs,
   and for the 18 compiled lock-suite verdicts of repobench's large
   class under the relaxed config, print the number of final outcomes,
   a digest of the sorted outcomes and the visited-state count: the
   smallest [max_states] under which [Relaxed.enumerate] completes.
   CI regenerates this table and diffs it against the checked-in copy,
   so a change to the machine's transitions, action order or state
   equivalence shows up as a diff. *)

open Wmm_litmus
open Wmm_lang
module Relaxed = Wmm_machine.Relaxed

let configs =
  [ ("sc", Relaxed.sc_config); ("tso", Relaxed.tso_config); ("relaxed", Relaxed.relaxed_config) ]

let completes config program n =
  match Relaxed.enumerate ~max_states:n config program with
  | _ -> true
  | exception Failure msg when msg = "Relaxed.enumerate: state limit exceeded" -> false

(* The smallest bound under which the enumeration completes. *)
let visited_states config program =
  let rec up lo hi = if completes config program hi then (lo, hi) else up hi (2 * hi) in
  let rec search lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if completes config program mid then search lo mid else search mid hi
  in
  let lo, hi = up 0 64 in
  search lo hi

let render (o : Relaxed.outcome) =
  String.concat ","
    (List.map (fun ((t, r), v) -> Printf.sprintf "%d:r%d=%d" t r v) o.Relaxed.registers
    @ List.map (fun (l, v) -> Printf.sprintf "m%d=%d" l v) o.Relaxed.memory)

let row name (cname, config) program =
  match Relaxed.enumerate config program with
  | outcomes ->
      let digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map render outcomes))) in
      Printf.printf "%s|%s|outcomes=%d|digest=%s|states=%d\n" name cname
        (List.length outcomes) digest (visited_states config program)
  | exception Failure msg -> Printf.printf "%s|%s|error=%s\n" name cname msg

(* repobench/verdict_certify.ml's [large_locks]: a lock at its default
   orders or with one site weakened one step, under one scheme. *)
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
  Option.iter
    (fun site ->
      Array.iteri
        (fun i (s, kind) -> if s = site then orders.(i) <- Option.get (Rank.weaker kind orders.(i)))
        l.Locks.sites)
    site;
  let t = Compile.compile_test scheme (l.Locks.build orders) in
  let label = match site with None -> name | Some s -> name ^ "/" ^ s in
  (label ^ "@" ^ scheme_name, t)

let () =
  List.iter
    (fun (t : Test.t) -> List.iter (fun c -> row t.Test.name c t.Test.program) configs)
    Library.all;
  List.iter
    (fun spec ->
      let name, (t : Test.t) = lock_test spec in
      row name ("relaxed", Relaxed.relaxed_config) t.Test.program)
    large_locks
