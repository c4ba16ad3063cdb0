(* The timing simulator as it was before its store buffer became a
   ring and its memory system scanned each cache set once: a list-based
   store buffer filtered and sorted on every store, a fresh scan of all
   cores before every uop, and two [remote_holder] walks per miss.  Kept
   verbatim, in test code only, as the oracle for [Perf.run]: the two
   must agree on the whole [Perf.stats] record. *)

open Wmm_util
open Wmm_machine

module Memsys = struct
  (* Cache line states of a simple invalidation protocol. *)
  type state = Invalid | Shared | Exclusive

  type t = {
    timing : Timing.t;
    cores : int;
    (* tags.(core).(set) is the line number held in that slot. *)
    tags : int array array;
    states : state array array;
    mutable bus_free_at : int;
    mutable transactions : int;
    mutable bus_wait : int;
  }

  let create timing ~cores =
    {
      timing;
      cores;
      tags = Array.init cores (fun _ -> Array.make timing.Timing.cache_lines (-1));
      states = Array.init cores (fun _ -> Array.make timing.Timing.cache_lines Invalid);
      bus_free_at = 0;
      transactions = 0;
      bus_wait = 0;
    }

  let reset t =
    Array.iter (fun row -> Array.fill row 0 (Array.length row) (-1)) t.tags;
    Array.iter (fun row -> Array.fill row 0 (Array.length row) Invalid) t.states;
    t.bus_free_at <- 0;
    t.transactions <- 0;
    t.bus_wait <- 0

  let line_of t loc = loc lsr t.timing.Timing.line_shift

  let set_of t line = line mod t.timing.Timing.cache_lines

  let holds t core line =
    let set = set_of t line in
    if t.tags.(core).(set) = line then t.states.(core).(set) else Invalid

  let set_state t core line st =
    let set = set_of t line in
    t.tags.(core).(set) <- line;
    t.states.(core).(set) <- st

  let invalidate_others t core line =
    for other = 0 to t.cores - 1 do
      if other <> core then begin
        let set = set_of t line in
        if t.tags.(other).(set) = line then t.states.(other).(set) <- Invalid
      end
    done

  (* Acquire the bus at [now]: returns the grant time and accounts for
     the wait.  Transactions are serialised, which is what couples the
     cores' barrier activity; the request queue is bounded at one
     outstanding transaction per core, so a burst of queued store
     drains cannot starve later requests indefinitely. *)
  let bus_grant t now =
    let cap = t.timing.Timing.bus_occupancy_cycles * t.cores in
    let backlog = min t.bus_free_at (now + cap) in
    let grant = max now backlog in
    t.bus_wait <- t.bus_wait + (grant - now);
    t.bus_free_at <- max t.bus_free_at (grant + t.timing.Timing.bus_occupancy_cycles);
    t.transactions <- t.transactions + 1;
    grant

  (* Does any other core hold the line (and in which state)? *)
  let remote_holder t core line =
    let found = ref None in
    for other = 0 to t.cores - 1 do
      if other <> core && !found = None then begin
        match holds t other line with
        | Invalid -> ()
        | st -> found := Some (other, st)
      end
    done;
    !found

  type access_cost = { ready_at : int; hit : bool }

  let load t ~core ~loc ~now =
    let tm = t.timing in
    let line = line_of t loc in
    match holds t core line with
    | Shared | Exclusive -> { ready_at = now + tm.Timing.l1_hit_cycles; hit = true }
    | Invalid ->
        let grant = bus_grant t now in
        let transfer =
          match remote_holder t core line with
          | Some (_, Exclusive) ->
              (* Dirty in another cache: cache-to-cache transfer,
                 both end Shared. *)
              tm.Timing.remote_transfer_cycles
          | Some (_, Shared) -> tm.Timing.l2_hit_cycles
          | Some (_, Invalid) | None -> tm.Timing.memory_cycles
        in
        (match remote_holder t core line with
        | Some (other, Exclusive) -> set_state t other line Shared
        | _ -> ());
        set_state t core line Shared;
        { ready_at = grant + transfer; hit = false }

  let store_drain t ~core ~loc ~now =
    let tm = t.timing in
    let line = line_of t loc in
    match holds t core line with
    | Exclusive -> now + tm.Timing.sb_drain_owned_cycles
    | Shared | Invalid ->
        (* Upgrade: bus transaction to invalidate other copies, plus a
           fetch when we do not hold the line at all. *)
        let grant = bus_grant t now in
        let base =
          match holds t core line with
          | Shared -> tm.Timing.sb_drain_shared_cycles
          | Invalid | Exclusive ->
              tm.Timing.sb_drain_shared_cycles
              + (match remote_holder t core line with
                | Some (_, Exclusive) -> tm.Timing.remote_transfer_cycles
                | _ -> tm.Timing.l2_hit_cycles)
        in
        invalidate_others t core line;
        set_state t core line Exclusive;
        grant + base

  let bus_transactions t = t.transactions
  let bus_wait_cycles t = t.bus_wait
end

(* One store-buffer entry: destination and the time its drain
   completes.  Drains are serial per core, so the completion time can
   be fixed at enqueue. *)
type sb_entry = { loc : int; completes : int }

type core_state = {
  id : int;
  stream : Uop.t array;
  mutable index : int;
  mutable time : int;
  mutable prev_was_spin : bool;
  mutable loads_seen : int;
  mutable misses_seen : int;
  mutable sb : sb_entry list;  (** Oldest first. *)
  mutable sb_tail_completes : int;
  mutable last_release : int;
  rng : Rng.t;
}

let forwardable core loc = List.exists (fun e -> e.loc = loc) core.sb

let same_loc_drain_time core loc =
  List.fold_left (fun acc e -> if e.loc = loc then max acc e.completes else acc) 0 core.sb

(* Time at which occupancy drops to [threshold] or below. *)
let time_for_occupancy core now threshold =
  let pending = List.filter (fun e -> e.completes > now) core.sb in
  let excess = List.length pending - threshold in
  if excess <= 0 then now
  else begin
    let completions = List.map (fun e -> e.completes) pending in
    let sorted = List.sort compare completions in
    List.nth sorted (excess - 1)
  end

let run (config : Perf.config) streams =
  if Array.length streams > config.Perf.cores then
    invalid_arg "Perf.run: more streams than cores";
  let tm = config.Perf.timing in
  let memsys = Memsys.create tm ~cores:config.Perf.cores in
  let base_rng = Rng.create config.Perf.seed in
  let cores =
    Array.mapi
      (fun i stream ->
        {
          id = i;
          stream;
          index = 0;
          time = 0;
          prev_was_spin = false;
          loads_seen = 0;
          misses_seen = 0;
          sb = [];
          sb_tail_completes = 0;
          last_release = min_int / 2;
          rng = Rng.split base_rng;
        })
      streams
  in
  let fence_stall = ref 0 in
  let release_stall = ref 0 in
  let forwarded = ref 0 in
  let hits = ref 0 in
  let misses = ref 0 in
  let executed = ref 0 in
  let enqueue_store ?(extra_drain = 0) core loc =
    (* Drop entries whose drain has completed; the live list is then
       bounded by the buffer capacity. *)
    core.sb <- List.filter (fun e -> e.completes > core.time) core.sb;
    (* Respect buffer capacity: stall until a slot frees up. *)
    let now = core.time in
    let avail = time_for_occupancy core now (tm.Timing.sb_capacity - 1) in
    core.time <- max now avail;
    let start = max core.time core.sb_tail_completes in
    let completes = Memsys.store_drain memsys ~core:core.id ~loc ~now:start + extra_drain in
    core.sb_tail_completes <- completes;
    core.sb <- core.sb @ [ { loc; completes } ];
    core.time <- core.time + 1
  in
  let do_load core loc =
    if forwardable core loc then begin
      incr forwarded;
      core.time <- core.time + 1
    end
    else begin
      let cost = Memsys.load memsys ~core:core.id ~loc ~now:core.time in
      core.loads_seen <- core.loads_seen + 1;
      if cost.Memsys.hit then incr hits
      else begin
        incr misses;
        core.misses_seen <- core.misses_seen + 1
      end;
      core.time <- cost.Memsys.ready_at
    end
  in
  let spin_cost core ~light n =
    (* Back-to-back injected loops overlap in the pipeline; only a
       fraction of a spin's time is paid when it directly follows
       another one. *)
    let full = Timing.spin_injected_cycles tm ~light n in
    if core.prev_was_spin then
      int_of_float (Float.round (tm.Timing.spin_adjacent_fraction *. float_of_int full))
    else full
  in
  let counter_base = 1_000_000 in
  let line_stride = 1 lsl tm.Timing.line_shift in
  let step core =
    let uop = core.stream.(core.index) in
    core.index <- core.index + 1;
    incr executed;
    let was_spin = match uop with Uop.Spin _ | Uop.Spin_light _ -> true | _ -> false in
    (match uop with
    | Uop.Busy n -> core.time <- core.time + max 0 n
    | Uop.Nops n -> core.time <- core.time + Timing.nop_cycles tm n
    | Uop.Spin n -> core.time <- core.time + spin_cost core ~light:false n
    | Uop.Spin_light n -> core.time <- core.time + spin_cost core ~light:true n
    | Uop.Branch ->
        (* Prediction quality tracks code/data footprint: tight
           cache-resident loops (lmbench-style) predict almost
           perfectly; large-footprint macro workloads do not.  This
           is the source of the paper's micro/macro divergence for
           the ctrl fencing strategy. *)
        let miss_ratio =
          if core.loads_seen = 0 then 0.
          else float_of_int core.misses_seen /. float_of_int core.loads_seen
        in
        let rate =
          Float.min tm.Timing.branch_mispredict_rate (0.06 +. (1.2 *. miss_ratio))
        in
        let cost =
          if Rng.unit_float core.rng < rate then
            tm.Timing.branch_cycles + tm.Timing.branch_mispredict_cycles
          else tm.Timing.branch_cycles
        in
        core.time <- core.time + cost
    | Uop.Load loc -> do_load core loc
    | Uop.Load_acquire loc ->
        (* An acquire load may not return a buffered (not yet
           globally visible) value: wait for same-location drains. *)
        core.time <- max core.time (same_loc_drain_time core loc);
        do_load core loc;
        core.time <- core.time + tm.Timing.acquire_extra_cycles
    | Uop.Store loc -> enqueue_store core loc
    | Uop.Store_release loc ->
        let avail = time_for_occupancy core core.time tm.Timing.release_drain_threshold in
        release_stall := !release_stall + max 0 (avail - core.time);
        core.time <- max core.time avail;
        enqueue_store ~extra_drain:tm.Timing.release_drain_penalty_cycles core loc;
        core.time <- core.time + tm.Timing.release_extra_cycles;
        core.last_release <- core.time
    | Uop.Fence_full ->
        let drained = max core.time core.sb_tail_completes in
        fence_stall := !fence_stall + (drained - core.time);
        let interaction =
          if core.time - core.last_release < 30 then
            tm.Timing.release_fence_interaction_cycles
          else 0
        in
        core.time <- drained + tm.Timing.full_fence_cycles + interaction
    | Uop.Fence_store -> core.time <- core.time + tm.Timing.store_fence_cycles
    | Uop.Fence_load -> core.time <- core.time + tm.Timing.load_fence_cycles
    | Uop.Fence_lw ->
        (* lwsync orders without a full drain: it only waits for the
           buffer to shrink below a couple of entries. *)
        let avail = time_for_occupancy core core.time 2 in
        fence_stall := !fence_stall + max 0 (avail - core.time);
        core.time <- max core.time avail + tm.Timing.lwsync_cycles
    | Uop.Fence_pipeline -> core.time <- core.time + tm.Timing.pipeline_flush_cycles
    | Uop.Counter_shared path ->
        (* Invocation counter in a line shared by every core: a
           read-modify-write that bounces the line (the perturbation
           the paper warns about). *)
        let loc = counter_base + (path * line_stride) in
        do_load core loc;
        core.time <- core.time + 1;
        enqueue_store core loc
    | Uop.Counter_private path ->
        let loc =
          counter_base + (1024 * line_stride)
          + (((path * config.Perf.cores) + core.id) * line_stride)
        in
        do_load core loc;
        core.time <- core.time + 1;
        enqueue_store core loc);
    core.prev_was_spin <- was_spin
  in
  (* Advance cores in global time order so shared-resource usage is
     causally consistent. *)
  let active core = core.index < Array.length core.stream in
  let rec loop () =
    let next = ref None in
    Array.iter
      (fun core ->
        if active core then
          match !next with
          | Some best when best.time <= core.time -> ()
          | _ -> next := Some core)
      cores;
    match !next with
    | None -> ()
    | Some core ->
        step core;
        loop ()
  in
  loop ();
  let per_core_cycles = Array.map (fun c -> max c.time c.sb_tail_completes) cores in
  {
    Perf.wall_cycles = Array.fold_left max 0 per_core_cycles;
    per_core_cycles;
    bus_transactions = Memsys.bus_transactions memsys;
    bus_wait_cycles = Memsys.bus_wait_cycles memsys;
    fence_stall_cycles = !fence_stall;
    release_stall_cycles = !release_stall;
    forwarded_loads = !forwarded;
    l1_hits = !hits;
    l1_misses = !misses;
    uops_executed = !executed;
  }

