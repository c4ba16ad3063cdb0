(* One certified verdict, as `litmus --exhaustive --certify` followed
   by `check` produces it: Check.run_exhaustive -> Emit.litmus ->
   Certificate.to_string -> Checker.check_string.  Shared by
   verdict-certify and by serve-mix's in-process reference answers. *)

open Wmm_model
open Wmm_litmus
module Certificate = Wmm_cert.Certificate

let config_for = function
  | Axiomatic.Sc | Axiomatic.Rc11 -> Wmm_machine.Relaxed.sc_config
  | Axiomatic.Tso -> Wmm_machine.Relaxed.tso_config
  | Axiomatic.Arm | Axiomatic.Power -> Wmm_machine.Relaxed.relaxed_config

(* Exploration counters of one op (differences of
   Enumerate.global_stats around it). *)
type counts = {
  explored : int;
  pruned : int;
  consistent : int;
  graph_executions : int;
  revisits : int;
  symmetry_skips : int;
  cutover_small : int;
}

let diff (a : Enumerate.stats) (b : Enumerate.stats) =
  {
    explored = b.Enumerate.generated - a.Enumerate.generated;
    pruned = b.Enumerate.pruned - a.Enumerate.pruned;
    consistent = b.Enumerate.consistent - a.Enumerate.consistent;
    graph_executions = b.Enumerate.graph_executions - a.Enumerate.graph_executions;
    revisits = b.Enumerate.revisits - a.Enumerate.revisits;
    symmetry_skips = b.Enumerate.symmetry_skips - a.Enumerate.symmetry_skips;
    cutover_small = b.Enumerate.cutover_small - a.Enumerate.cutover_small;
  }

type cert = Accepted of bool  (** claim: allowed? *) | Rejected of string | Declined

type result = {
  dt : float;
  allowed : bool;
  observed : bool;
  sound : bool;
  outcomes : int;  (** Final states the operational machine reached. *)
  cert : cert;
  bytes : int;
  counts : counts;
  relaxed_s : float;
  enumerate_s : float;
  emit_s : float;
  checker_s : float;
}

let run model (test : Test.t) =
  let s0 = Enumerate.global_stats () in
  let t0 = Measure.now () in
  let v =
    Trace.span "Check.run_exhaustive" (fun () -> Check.run_exhaustive model (config_for model) test)
  in
  let t1 = Measure.now () in
  let s1 = Enumerate.global_stats () in
  let text =
    match Trace.span "Emit.litmus" (fun () -> Wmm_certify.Emit.litmus model test) with
    | Ok c -> Some (Trace.span "Certificate.to_string" (fun () -> Certificate.to_string c))
    | Error _ -> None
  in
  let t2 = Measure.now () in
  let checked =
    Option.map (fun s -> Trace.span "Checker.check_string" (fun () -> Wmm_cert.Checker.check_string s)) text
  in
  let t3 = Measure.now () in
  let s2 = Enumerate.global_stats () in
  let cert =
    match checked with
    | None -> Declined
    | Some (Error r) -> Rejected r.Wmm_cert.Checker.code
    | Some (Ok c) -> (
        match c.Certificate.claim with
        | Certificate.Allowed _ -> Accepted true
        | Certificate.Forbidden _ -> Accepted false
        | Certificate.Minimal _ -> Rejected "unexpected-minimality-claim")
  in
  let enumerate_s = s1.Enumerate.wall_s -. s0.Enumerate.wall_s in
  {
    dt = t3 -. t0;
    allowed = v.Check.axiomatic_allowed;
    observed = v.Check.observed;
    sound = Check.sound v;
    outcomes = v.Check.total;
    cert;
    bytes = (match text with Some s -> String.length s | None -> 0);
    counts = diff s0 s2;
    relaxed_s = t1 -. t0 -. enumerate_s;
    enumerate_s;
    emit_s = t2 -. t1;
    checker_s = t3 -. t2;
  }

(* An op fails when its answer is wrong: the machine reached an
   outcome the model forbids (or the verdict contradicts the test's
   annotation), the checker rejected the certificate, or the
   certificate claims the opposite verdict.  A declined certificate
   (emission's candidate cap) is not a wrong answer. *)
let failed r =
  (not r.sound)
  || match r.cert with Accepted claim -> claim <> r.allowed | Rejected _ -> true | Declined -> false

let cert_name = function
  | Accepted true -> "allowed"
  | Accepted false -> "forbidden"
  | Rejected code -> "rejected:" ^ code
  | Declined -> "declined"

(* Everything deterministic about an op: the signature of an
   equal-cost class. *)
let signature r =
  let c = r.counts in
  Printf.sprintf
    "allowed=%b|observed=%b|sound=%b|cert=%s|outcomes=%d|explored=%d|pruned=%d|consistent=%d|graph=%d|revisits=%d|symmetry_skips=%d|cutover_small=%d|bytes=%d"
    r.allowed r.observed r.sound (cert_name r.cert) r.outcomes c.explored c.pruned c.consistent
    c.graph_executions c.revisits c.symmetry_skips c.cutover_small r.bytes

(* The work counts a repeat must reproduce. *)
let work r = (r.counts, r.outcomes, r.bytes)
