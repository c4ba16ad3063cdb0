open Wmm_isa
open Wmm_machine
open Wmm_model
open Wmm_litmus

let program_of name = (Option.get (Library.by_name name)).Test.program

let test_determinism () =
  let p = program_of "SB" in
  let a = Relaxed.run Relaxed.relaxed_config ~seed:5 p in
  let b = Relaxed.run Relaxed.relaxed_config ~seed:5 p in
  Alcotest.(check int) "same outcome" 0 (Relaxed.compare_outcome a b)

let test_single_thread_sequential () =
  (* A single thread behaves sequentially under every config. *)
  let p =
    Program.make ~name:"seq" ~location_names:[| "x" |]
      [
        [|
          Instr.Store { src = Instr.Imm 1; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Load { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Store { src = Instr.Imm 2; addr = Instr.Imm 0; order = Instr.Plain };
          Instr.Load { dst = 2; addr = Instr.Imm 0; order = Instr.Plain };
        |];
      ]
  in
  List.iter
    (fun config ->
      let outcomes = Relaxed.enumerate config p in
      Alcotest.(check int) "single outcome" 1 (List.length outcomes);
      let o = List.hd outcomes in
      Alcotest.(check int) "r1 forwards 1" 1 (List.assoc (0, 1) o.Relaxed.registers);
      Alcotest.(check int) "r2 forwards 2" 2 (List.assoc (0, 2) o.Relaxed.registers);
      Alcotest.(check int) "final x" 2 (List.assoc 0 o.Relaxed.memory))
    [ Relaxed.sc_config; Relaxed.tso_config; Relaxed.relaxed_config ]

let test_registers_computed () =
  let p =
    Program.make ~name:"alu" ~location_names:[| "x" |]
      [
        [|
          Instr.Mov { dst = 1; src = Instr.Imm 5 };
          Instr.Op { op = Instr.Add; dst = 2; a = Instr.Reg 1; b = Instr.Imm 3 };
          Instr.Op { op = Instr.Xor; dst = 3; a = Instr.Reg 2; b = Instr.Reg 2 };
        |];
      ]
  in
  let o = Relaxed.run Relaxed.relaxed_config ~seed:1 p in
  Alcotest.(check int) "mov" 5 (List.assoc (0, 1) o.Relaxed.registers);
  Alcotest.(check int) "add" 8 (List.assoc (0, 2) o.Relaxed.registers);
  Alcotest.(check int) "xor self" 0 (List.assoc (0, 3) o.Relaxed.registers)

let test_branch_loop () =
  (* A small countdown loop: mov r1 3; subs-like decrement via add -1;
     cbnz back. *)
  let p =
    Program.make ~name:"loop" ~location_names:[| "x" |]
      [
        [|
          Instr.Mov { dst = 1; src = Instr.Imm 3 };
          Instr.Op { op = Instr.Add; dst = 1; a = Instr.Reg 1; b = Instr.Imm (-1) };
          Instr.Cbnz { src = 1; offset = -2 };
          Instr.Store { src = Instr.Imm 9; addr = Instr.Imm 0; order = Instr.Plain };
        |];
      ]
  in
  let o = Relaxed.run Relaxed.relaxed_config ~seed:2 p in
  Alcotest.(check int) "loop exited with r1=0" 0 (List.assoc (0, 1) o.Relaxed.registers);
  Alcotest.(check int) "store after loop" 9 (List.assoc 0 o.Relaxed.memory)

let test_sc_machine_matches_sc_model () =
  (* On the common shapes the SC machine's reachable outcomes are
     exactly the SC-allowed outcomes. *)
  List.iter
    (fun (test : Test.t) ->
      let operational = Relaxed.enumerate Relaxed.sc_config test.Test.program in
      let axiomatic = Enumerate.allowed_outcomes Axiomatic.Sc test.Test.program in
      let to_pairs (o : Relaxed.outcome) = (o.Relaxed.registers, o.Relaxed.memory) in
      let ax_pairs =
        List.map
          (fun (o : Enumerate.outcome) -> (o.Enumerate.registers, o.Enumerate.memory))
          axiomatic
      in
      List.iter
        (fun o ->
          if not (List.mem (to_pairs o) ax_pairs) then
            Alcotest.failf "%s: SC machine outcome not SC-allowed" test.Test.name)
        operational)
    Library.common

let test_relaxed_subset_of_arm () =
  (* Soundness: the relaxed machine never reaches an ARM-forbidden
     state on any test in the library. *)
  List.iter
    (fun (test : Test.t) ->
      let operational = Relaxed.enumerate Relaxed.relaxed_config test.Test.program in
      let axiomatic = Enumerate.allowed_outcomes Axiomatic.Arm test.Test.program in
      let ax_pairs =
        List.map
          (fun (o : Enumerate.outcome) -> (o.Enumerate.registers, o.Enumerate.memory))
          axiomatic
      in
      List.iter
        (fun (o : Relaxed.outcome) ->
          if not (List.mem (o.Relaxed.registers, o.Relaxed.memory) ax_pairs) then
            Alcotest.failf "%s: relaxed machine exceeded the ARM model" test.Test.name)
        operational)
    (Library.coherence @ Library.common @ Library.arm)

let test_store_buffering_observed () =
  let p = program_of "SB" in
  let outcomes = Relaxed.enumerate Relaxed.relaxed_config p in
  let weak =
    List.exists
      (fun (o : Relaxed.outcome) ->
        List.assoc (0, 1) o.Relaxed.registers = 0 && List.assoc (1, 1) o.Relaxed.registers = 0)
      outcomes
  in
  Alcotest.(check bool) "SB weak outcome reachable" true weak

let test_collect_histogram () =
  let p = program_of "SB" in
  let hist = Relaxed.collect Relaxed.relaxed_config ~seed:3 ~iterations:500 p in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "histogram sums to iterations" 500 total;
  Alcotest.(check bool) "several distinct outcomes" true (List.length hist >= 3)

let test_full_fence_drains () =
  (* dmb between store and load: the load cannot see a stale remote
     value while our store is buffered.  SB+dmbs weak outcome must be
     unreachable. *)
  let p = program_of "SB+dmbs" in
  let outcomes = Relaxed.enumerate Relaxed.relaxed_config p in
  List.iter
    (fun (o : Relaxed.outcome) ->
      let r0 = List.assoc (0, 1) o.Relaxed.registers in
      let r1 = List.assoc (1, 1) o.Relaxed.registers in
      if r0 = 0 && r1 = 0 then Alcotest.fail "dmb failed to forbid SB")
    outcomes

let prop_random_runs_within_enumerated =
  QCheck.Test.make ~name:"random outcomes within enumerated set" ~count:30
    QCheck.small_int (fun seed ->
      let p = program_of "MP" in
      let enumerated = Relaxed.enumerate Relaxed.relaxed_config p in
      let o = Relaxed.run Relaxed.relaxed_config ~seed p in
      List.exists (fun o' -> Relaxed.compare_outcome o o' = 0) enumerated)

(* ------------------------------------------------------------------ *)
(* The flat-state machine against the list-based reference.            *)
(* ------------------------------------------------------------------ *)

module Ref = Relaxed_reference
module Rng = Wmm_util.Rng

let configs =
  [ ("sc", Relaxed.sc_config); ("tso", Relaxed.tso_config); ("relaxed", Relaxed.relaxed_config) ]

let ref_config (c : Relaxed.config) =
  {
    Ref.window_size = c.Relaxed.window_size;
    fifo_buffer = c.Relaxed.fifo_buffer;
    reorder_loads = c.Relaxed.reorder_loads;
    synchronous_stores = c.Relaxed.synchronous_stores;
  }

let limit_msg = "Relaxed.enumerate: state limit exceeded"

(* An enumeration's outcomes as (registers, memory) pairs, or the
   message it failed with. *)
let attempt f =
  match f () with outcomes -> Ok outcomes | exception Failure msg -> Error msg

let pairs_new = List.map (fun (o : Relaxed.outcome) -> (o.Relaxed.registers, o.Relaxed.memory))
let pairs_ref = List.map (fun (o : Ref.outcome) -> (o.Ref.registers, o.Ref.memory))
let enum_new config p n =
  Result.map pairs_new (attempt (fun () -> Relaxed.enumerate ~max_states:n config p))

let enum_ref config p n =
  Result.map pairs_ref (attempt (fun () -> Ref.enumerate ~max_states:n (ref_config config) p))

(* The new machine's visited-state count: the smallest bound under
   which it does not hit the state limit; [None] beyond [limit]. *)
let visited_new config p ~limit =
  let fits n = enum_new config p n <> Error limit_msg in
  let rec up lo hi =
    if fits hi then Some (lo, hi) else if hi >= limit then None else up hi (min limit (2 * hi))
  in
  let rec search lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if fits mid then search lo mid else search mid hi
  in
  Option.map (fun (lo, hi) -> search lo hi) (up 0 (min limit 64))

(* A run's outcome as (registers, memory), with its traces, or the
   message it failed with. *)
let run_new f =
  match f () with
  | (o : Relaxed.outcome), traces -> Ok ((o.Relaxed.registers, o.Relaxed.memory), traces)
  | exception Failure msg -> Error msg

let run_ref f =
  match f () with
  | (o : Ref.outcome), traces -> Ok ((o.Ref.registers, o.Ref.memory), traces)
  | exception Failure msg -> Error msg

let runs_agree config p seed =
  run_new (fun () -> Relaxed.run_traced config ~seed p)
  = run_ref (fun () -> Ref.run_traced (ref_config config) ~seed p)
  && run_new (fun () -> (Relaxed.run config ~seed p, [||]))
     = run_ref (fun () -> (Ref.run (ref_config config) ~seed p, [||]))

(* Where the two machines disagree on [p] under [config]: outcomes,
   visited-state count (both complete at the new machine's count N,
   the reference fails at N - 1), or a seeded random run. *)
let disagreement ?(limit = 500_000) config p =
  match visited_new config p ~limit with
  | None ->
      if enum_ref config p limit = Error limit_msg then None
      else Some "only the new machine exceeds the limit"
  | Some n ->
      if enum_new config p n <> enum_ref config p n then
        Some (Printf.sprintf "outcomes differ at %d states" n)
      else if enum_ref config p (n - 1) <> Error limit_msg then
        Some (Printf.sprintf "the reference visits fewer than %d states" n)
      else
        List.find_map
          (fun seed ->
            if runs_agree config p seed then None
            else Some (Printf.sprintf "seed %d run differs" seed))
          [ 1; 2; 3; 4; 5 ]

let check_corpus ?(configs = configs) programs =
  List.iter
    (fun (name, (p : Program.t)) ->
      List.iter
        (fun (cname, config) ->
          match disagreement config p with
          | None -> ()
          | Some what -> Alcotest.failf "%s under %s: %s" name cname what)
        configs)
    programs

let test_oracle_library () =
  check_corpus (List.map (fun (t : Test.t) -> (t.Test.name, t.Test.program)) Library.all)

(* Both ways round the first branch fetch six instructions, and
   register 1 is overwritten, so the two paths meet in states with one
   key: pc 6 and 7 in the window at the same eids, memory and bindings
   equal.  Only the path through pc 2 has written register 2 by then. *)
let merging_paths =
  let mov dst v = Instr.Mov { dst; src = Instr.Imm v } in
  Program.make ~name:"merging-paths" ~location_names:[| "x" |]
    [
      [|
        Instr.Load { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
        Instr.Cbz { src = 1; offset = 2 };
        mov 2 1;
        Instr.Cbz { src = 9; offset = 2 };
        Instr.Nop;
        Instr.Nop;
        mov 1 7;
        mov 2 2;
      |];
      [| Instr.Store { src = Instr.Imm 1; addr = Instr.Imm 0; order = Instr.Plain } |];
    ]

(* The two ways round the branch reach pc 3 and 4 at different eids,
   with everything else equal once register 1 is overwritten: states
   that differ only in their eids. *)
let shifted_eids =
  Program.make ~name:"shifted-eids" ~location_names:[| "x" |]
    [
      [|
        Instr.Load { dst = 1; addr = Instr.Imm 0; order = Instr.Plain };
        Instr.Cbz { src = 1; offset = 1 };
        Instr.Nop;
        Instr.Mov { dst = 1; src = Instr.Imm 7 };
        Instr.Nop;
      |];
      [| Instr.Store { src = Instr.Imm 1; addr = Instr.Imm 0; order = Instr.Plain } |];
    ]

(* A load with two older buffered stores to its location: it must
   forward from the younger. *)
let two_buffered_stores =
  let st v = Instr.Store { src = Instr.Imm v; addr = Instr.Imm 0; order = Instr.Plain } in
  let ld = Instr.Load { dst = 1; addr = Instr.Imm 0; order = Instr.Plain } in
  Program.make ~name:"two-buffered-stores" ~location_names:[| "x" |]
    [ [| st 1; st 2; ld |]; [| st 3 |] ]

let test_oracle_fuzz_programs () =
  let rng = Rng.create 2016 in
  check_corpus
    (("merging-paths", merging_paths)
    :: ("shifted-eids", shifted_eids)
    :: ("two-buffered-stores", two_buffered_stores)
    :: List.init 60 (fun i ->
           let arch = if i mod 2 = 0 then Arch.Armv8 else Arch.Power7 in
           (Printf.sprintf "fuzz-%d" i, Test_fuzz.random_program rng arch)))

(* The reference needs about 20 us per lock state and the count two
   enumerations of each machine, so under each config only programs of
   at most 1500 states take part (12 of 21 under relaxed, all under
   SC).  The machine golden table pins the counts of the larger ones. *)
let test_oracle_locks () =
  let programs =
    List.concat_map
      (fun (l : Wmm_lang.Locks.t) ->
        List.map
          (fun scheme ->
            let t = Wmm_lang.Compile.compile_test scheme (Wmm_lang.Locks.test_of l) in
            (t.Test.name, t.Test.program))
          Wmm_lang.Compile.all_schemes)
      Wmm_lang.Locks.all
  in
  List.iter
    (fun ((cname, config), expected) ->
      let small = List.filter (fun (_, p) -> visited_new config p ~limit:1500 <> None) programs in
      Alcotest.(check int) ("lock programs under " ^ cname) expected (List.length small);
      check_corpus ~configs:[ (cname, config) ] small)
    [ (("sc", Relaxed.sc_config), 21); (("relaxed", Relaxed.relaxed_config), 12) ]

let test_oracle_synth () =
  let rng = Rng.create 6 in
  check_corpus
    (List.concat_map
       (fun arch ->
         Wmm_synth.Synth.generate arch
         |> List.filter (fun _ -> Rng.int rng 120 = 0)
         |> List.map (fun (g : Wmm_synth.Synth.generated) ->
                let t = g.Wmm_synth.Synth.g_test in
                (Arch.name arch ^ "/" ^ t.Test.name, t.Test.program)))
       [ Arch.Armv8; Arch.Power7 ])

(* Random programs over every instruction kind: register addresses
   (reaching locations outside the program's), all barriers and
   orders, exclusives, forward branches and counted loops. *)
let random_rich_program rng =
  let reg () = 1 + Rng.int rng 3 in
  let operand () = if Rng.bool rng then Instr.Imm (Rng.int rng 3) else Instr.Reg (reg ()) in
  let order () =
    Rng.choose rng [| Instr.Plain; Instr.Plain; Instr.Acquire; Instr.Release; Instr.Sc |]
  in
  let barrier () =
    Rng.choose rng
      [|
        Instr.Dmb_ish; Instr.Dmb_ishld; Instr.Dmb_ishst; Instr.Isb; Instr.Sync; Instr.Lwsync;
        Instr.Isync; Instr.Eieio; Instr.Fence_acq; Instr.Fence_rel; Instr.Fence_acq_rel;
        Instr.Fence_sc;
      |]
  in
  let binop () = Rng.choose rng [| Instr.Add; Instr.Sub; Instr.Xor; Instr.And |] in
  let instr ~remaining =
    match Rng.int rng 11 with
    | 0 | 1 -> Instr.Store { src = operand (); addr = operand (); order = order () }
    | 2 | 3 -> Instr.Load { dst = reg (); addr = operand (); order = order () }
    | 4 -> Instr.Barrier (barrier ())
    | 5 -> Instr.Load_exclusive { dst = reg (); addr = operand (); order = order () }
    | 6 ->
        Instr.Store_exclusive
          { status = reg (); src = operand (); addr = operand (); order = order () }
    | 7 -> Instr.Mov { dst = reg (); src = operand () }
    | 8 -> Instr.Op { op = binop (); dst = reg (); a = operand (); b = operand () }
    | 9 -> Instr.Cbz { src = reg (); offset = Rng.int rng (remaining + 1) }
    | _ -> Instr.Cbnz { src = reg (); offset = Rng.int rng (remaining + 1) }
  in
  let thread _ =
    let n = 1 + Rng.int rng 4 in
    let body = List.init n (fun i -> instr ~remaining:(n - 1 - i)) in
    if Rng.int rng 4 > 0 then Array.of_list body
    else
      (* The body run twice, counted down in register 9 (which the
         body never writes); branches inside it fall through. *)
      let body =
        List.map
          (function
            | Instr.Cbz { src; _ } -> Instr.Cbz { src; offset = 0 }
            | Instr.Cbnz { src; _ } -> Instr.Cbnz { src; offset = 0 }
            | i -> i)
          body
      in
      Array.of_list
        ((Instr.Mov { dst = 9; src = Instr.Imm 2 } :: body)
        @ [
            Instr.Op { op = Instr.Sub; dst = 9; a = Instr.Reg 9; b = Instr.Imm 1 };
            Instr.Cbnz { src = 9; offset = -(n + 2) };
          ])
  in
  Program.make ~name:"rich" ~location_names:[| "x"; "y"; "z" |] ~init:[ (1, 1) ]
    (List.init (1 + Rng.int rng 3) thread)

let prop_oracle_random =
  QCheck.Test.make ~name:"flat machine = reference on random programs" ~count:60 QCheck.small_int
    (fun seed ->
      let p = random_rich_program (Rng.create seed) in
      List.for_all
        (fun (cname, config) ->
          match disagreement ~limit:2000 config p with
          | None -> true
          | Some what -> QCheck.Test.fail_reportf "seed %d under %s: %s" seed cname what)
        configs)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "single thread sequential" `Quick test_single_thread_sequential;
    Alcotest.test_case "register computation" `Quick test_registers_computed;
    Alcotest.test_case "branch loop" `Quick test_branch_loop;
    Alcotest.test_case "SC machine = SC model" `Slow test_sc_machine_matches_sc_model;
    Alcotest.test_case "relaxed machine within ARM model" `Slow test_relaxed_subset_of_arm;
    Alcotest.test_case "store buffering observed" `Quick test_store_buffering_observed;
    Alcotest.test_case "collect histogram" `Quick test_collect_histogram;
    Alcotest.test_case "full fence forbids SB" `Quick test_full_fence_drains;
    QCheck_alcotest.to_alcotest prop_random_runs_within_enumerated;
    Alcotest.test_case "oracle: library" `Quick test_oracle_library;
    Alcotest.test_case "oracle: fuzz programs" `Quick test_oracle_fuzz_programs;
    Alcotest.test_case "oracle: lock suite" `Slow test_oracle_locks;
    Alcotest.test_case "oracle: synth slice" `Slow test_oracle_synth;
    QCheck_alcotest.to_alcotest prop_oracle_random;
  ]
