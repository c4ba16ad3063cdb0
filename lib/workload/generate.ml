open Wmm_util
open Wmm_machine
open Wmm_platform

type platform = Jvm_platform of Jvm.config | Kernel_platform of Kernel.config

let platform_arch = function
  | Jvm_platform c -> c.Jvm.arch
  | Kernel_platform c -> c.Kernel.arch

(* Draw an integer count from a fractional per-unit rate. *)
let draw_count rng rate =
  let base = int_of_float (floor rate) in
  let frac = rate -. float_of_int base in
  base + (if frac > 0. && Rng.unit_float rng < frac then 1 else 0)

let pick_location (p : Profile.t) rng tid =
  if Rng.unit_float rng < p.Profile.share_ratio then Rng.int rng p.Profile.shared_locations
  else begin
    let base = p.Profile.shared_locations + (tid * p.Profile.working_set) in
    base + Rng.int rng p.Profile.working_set
  end

let shared_location (p : Profile.t) rng = Rng.int rng p.Profile.shared_locations

(* Platform operations are compiled once per [streams] call into
   templates with a hole for the operation's location: [uops] as
   compiled for location 0, and the positions that carry the
   location.  A unit then copies templates instead of re-running
   [Jvm.compile] / [Kernel.expand] for every operation. *)
type template = { uops : Uop.t array; holes : int array }

let with_loc uop loc =
  match uop with
  | Uop.Load _ -> Uop.Load loc
  | Uop.Store _ -> Uop.Store loc
  | Uop.Load_acquire _ -> Uop.Load_acquire loc
  | Uop.Store_release _ -> Uop.Store_release loc
  | u -> u

(* Compiling for two locations finds the holes, and checks that the
   location only ever appears as an access's address. *)
let template compile =
  let a = Array.of_list (compile 0) and b = Array.of_list (compile 1) in
  let not_parametric () = invalid_arg "Generate: platform code is not parametric in its location" in
  if Array.length a <> Array.length b then not_parametric ();
  let holes = List.filter (fun i -> a.(i) <> b.(i)) (List.init (Array.length a) Fun.id) in
  if List.exists (fun i -> b.(i) <> with_loc a.(i) 1) holes then not_parametric ();
  { uops = a; holes = Array.of_list holes }

(* One template per JVM operation kind (a lock is an enter/exit pair
   around 8 busy cycles), or per kernel macro of the profile.
   Distinct kernel macro invocations are separated by a little
   surrounding work (argument setup, branching): they are not
   back-to-back in real kernel code, so injected cost functions at
   different sites do not overlap in the pipeline. *)
let templates (p : Profile.t) = function
  | Jvm_platform c ->
      let op mk = template (fun loc -> Jvm.compile c (mk loc)) in
      [|
        op (fun l -> Jvm.Volatile_load l);
        op (fun l -> Jvm.Volatile_store l);
        op (fun l -> Jvm.Cas l);
        template (fun l ->
            Jvm.compile c (Jvm.Lock_enter l) @ [ Uop.Busy 8 ] @ Jvm.compile c (Jvm.Lock_exit l));
      |]
  | Kernel_platform c ->
      Array.of_list
        (List.map
           (fun (macro, _) -> template (fun loc -> Kernel.expand c macro ~loc @ [ Uop.Busy 3 ]))
           p.Profile.kernel)

(* A thread's stream is first recorded as (code, argument) int pairs
   in a scratch buffer reused across threads: a template index and its
   location, or one Busy / Load / Store uop.  The GC never scans an
   int array, and the stream array is then allocated at its exact
   length and filled once. *)
let busy_code = -1
let load_code = -2
let store_code = -3

type scratch = { mutable pairs : int array; mutable count : int }

let add s code arg =
  if 2 * (s.count + 1) > Array.length s.pairs then begin
    let pairs = Array.make (4 * (s.count + 1)) 0 in
    Array.blit s.pairs 0 pairs 0 (2 * s.count);
    s.pairs <- pairs
  end;
  s.pairs.(2 * s.count) <- code;
  s.pairs.((2 * s.count) + 1) <- arg;
  s.count <- s.count + 1

let materialise templates s =
  let len = ref 0 in
  for i = 0 to s.count - 1 do
    let code = s.pairs.(2 * i) in
    len := !len + if code >= 0 then Array.length templates.(code).uops else 1
  done;
  let a = Array.make !len Uop.Branch in
  let j = ref 0 in
  for i = 0 to s.count - 1 do
    let code = s.pairs.(2 * i) and arg = s.pairs.((2 * i) + 1) in
    if code >= 0 then begin
      let t = templates.(code) in
      Array.blit t.uops 0 a !j (Array.length t.uops);
      for h = 0 to Array.length t.holes - 1 do
        let k = t.holes.(h) in
        a.(!j + k) <- with_loc t.uops.(k) arg
      done;
      j := !j + Array.length t.uops
    end
    else begin
      a.(!j) <-
        (if code = busy_code then Uop.Busy arg
         else if code = load_code then Uop.Load arg
         else Uop.Store arg);
      incr j
    end
  done;
  a

(* Template indices follow [templates]: volatile loads, volatile
   stores, CASes, then lock enter/exit pairs. *)
let draw_jvm_ops (p : Profile.t) ops rng =
  let r = p.Profile.jvm in
  let draw template rate =
    for _ = 1 to draw_count rng rate do
      add ops template (shared_location p rng)
    done
  in
  draw 0 r.Profile.volatile_loads;
  draw 1 r.Profile.volatile_stores;
  draw 2 r.Profile.cas;
  draw 3 r.Profile.locks

let draw_kernel_ops (p : Profile.t) ops rng =
  List.iteri
    (fun template (_, rate) ->
      for _ = 1 to draw_count rng rate do
        add ops template (shared_location p rng)
      done)
    p.Profile.kernel

(* One work unit.  The draws come in a fixed order - busy, platform
   ops, loads, stores, tail - so the platform ops, laid out after the
   stores, wait in [ops]. *)
let unit_uops (p : Profile.t) platform ops s rng tid =
  let noise = p.Profile.noise in
  let busy =
    let mean = float_of_int p.Profile.unit_busy_cycles in
    let drawn =
      if noise.Profile.busy_std_frac > 0. then
        Rng.gaussian rng ~mean ~std:(mean *. noise.Profile.busy_std_frac)
      else mean
    in
    Int.max 1 (int_of_float drawn)
  in
  ops.count <- 0;
  (match platform with
  | Jvm_platform _ -> draw_jvm_ops p ops rng
  | Kernel_platform _ -> draw_kernel_ops p ops rng);
  (* Interleave compute with memory traffic and platform operations
     so barriers meet realistic store-buffer occupancy. *)
  add s busy_code (busy / 4);
  for _ = 1 to p.Profile.unit_loads do
    add s load_code (pick_location p rng tid)
  done;
  add s busy_code (busy / 4);
  for _ = 1 to p.Profile.unit_stores do
    add s store_code (pick_location p rng tid)
  done;
  for i = 0 to ops.count - 1 do
    add s ops.pairs.(2 * i) ops.pairs.((2 * i) + 1)
  done;
  add s busy_code (busy - (2 * (busy / 4)));
  if noise.Profile.unit_tail_prob > 0. && Rng.unit_float rng < noise.Profile.unit_tail_prob then
    add s busy_code
      (int_of_float
         (Rng.pareto rng ~shape:1.5 ~scale:(float_of_int (Int.max 1 noise.Profile.unit_tail_cycles))))

let streams ?units_override (p : Profile.t) platform ~seed =
  (match Profile.validate p with Ok () -> () | Error m -> invalid_arg m);
  let arch = platform_arch platform in
  let threads = Profile.effective_threads p arch in
  let units =
    match units_override with Some u -> u | None -> p.Profile.units_per_thread
  in
  let templates = templates p platform in
  let ops = { pairs = [||]; count = 0 } and s = { pairs = [||]; count = 0 } in
  let root = Rng.create (seed * 2654435761) in
  Array.init threads (fun tid ->
      let rng = Rng.split root in
      s.count <- 0;
      for _ = 1 to units do
        unit_uops p platform ops s rng tid
      done;
      materialise templates s)

let unit_uop_estimate (p : Profile.t) platform =
  let sample = streams ~units_override:8 p platform ~seed:99 in
  if Array.length sample = 0 then 0
  else Array.length sample.(0) / 8
