(* The stream generator as it was before it compiled platform
   operations into templates: [Jvm.compile] / [Kernel.expand] per
   operation, and uop lists joined with [@] and [List.concat_map].
   Kept, in test code only, as the oracle for [Generate.streams]: the
   two must return equal streams from equal draws. *)

open Wmm_util
open Wmm_machine
open Wmm_platform
open Wmm_workload

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

let jvm_unit_ops (p : Profile.t) (config : Jvm.config) rng tid =
  let r = p.Profile.jvm in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  for _ = 1 to draw_count rng r.Profile.volatile_loads do
    emit (Jvm.Volatile_load (shared_location p rng))
  done;
  for _ = 1 to draw_count rng r.Profile.volatile_stores do
    emit (Jvm.Volatile_store (shared_location p rng))
  done;
  for _ = 1 to draw_count rng r.Profile.cas do
    emit (Jvm.Cas (shared_location p rng))
  done;
  ignore tid;
  let uops = List.concat_map (Jvm.compile config) (List.rev !ops) in
  let lock_uops =
    List.concat
      (List.init (draw_count rng r.Profile.locks) (fun _ ->
           let l = shared_location p rng in
           Jvm.compile config (Jvm.Lock_enter l)
           @ [ Uop.Busy 8 ]
           @ Jvm.compile config (Jvm.Lock_exit l)))
  in
  uops @ lock_uops

let kernel_unit_ops (p : Profile.t) (config : Kernel.config) rng =
  (* Distinct macro invocations are separated by a little surrounding
     work (argument setup, branching): they are not back-to-back in
     real kernel code, so injected cost functions at different sites
     do not overlap in the pipeline. *)
  List.concat_map
    (fun (macro, rate) ->
      List.concat
        (List.init (draw_count rng rate) (fun _ ->
             Kernel.expand config macro ~loc:(shared_location p rng) @ [ Uop.Busy 3 ])))
    p.Profile.kernel

let unit_uops (p : Profile.t) platform rng tid =
  let noise = p.Profile.noise in
  let busy =
    let mean = float_of_int p.Profile.unit_busy_cycles in
    let drawn =
      if noise.Profile.busy_std_frac > 0. then
        Rng.gaussian rng ~mean ~std:(mean *. noise.Profile.busy_std_frac)
      else mean
    in
    max 1 (int_of_float drawn)
  in
  let platform_ops =
    match platform with
    | Generate.Jvm_platform c -> jvm_unit_ops p c rng tid
    | Generate.Kernel_platform c -> kernel_unit_ops p c rng
  in
  let loads = List.init p.Profile.unit_loads (fun _ -> Uop.Load (pick_location p rng tid)) in
  let stores = List.init p.Profile.unit_stores (fun _ -> Uop.Store (pick_location p rng tid)) in
  let tail =
    if
      noise.Profile.unit_tail_prob > 0.
      && Rng.unit_float rng < noise.Profile.unit_tail_prob
    then
      [ Uop.Busy (int_of_float (Rng.pareto rng ~shape:1.5 ~scale:(float_of_int (max 1 noise.Profile.unit_tail_cycles)))) ]
    else []
  in
  (* Interleave compute with memory traffic and platform operations
     so barriers meet realistic store-buffer occupancy. *)
  [ Uop.Busy (busy / 4) ]
  @ loads
  @ [ Uop.Busy (busy / 4) ]
  @ stores
  @ platform_ops
  @ [ Uop.Busy (busy - (2 * (busy / 4))) ]
  @ tail

let streams ?units_override (p : Profile.t) platform ~seed =
  (match Profile.validate p with Ok () -> () | Error m -> invalid_arg m);
  let arch = Generate.platform_arch platform in
  let threads = Profile.effective_threads p arch in
  let units =
    match units_override with Some u -> u | None -> p.Profile.units_per_thread
  in
  let root = Rng.create (seed * 2654435761) in
  Array.init threads (fun tid ->
      let rng = Rng.split root in
      let buffer = ref [] in
      for _ = 1 to units do
        buffer := List.rev_append (unit_uops p platform rng tid) !buffer
      done;
      Array.of_list (List.rev !buffer))
