open Wmm_isa
open Wmm_util

type config = { timing : Timing.t; cores : int; seed : int }

let config ?(seed = 1) ?cores arch =
  let cores = match cores with Some c -> c | None -> Arch.core_count arch in
  { timing = Timing.for_arch arch; cores; seed }

type stats = {
  wall_cycles : int;
  per_core_cycles : int array;
  bus_transactions : int;
  bus_wait_cycles : int;
  fence_stall_cycles : int;
  release_stall_cycles : int;
  forwarded_loads : int;
  l1_hits : int;
  l1_misses : int;
  uops_executed : int;
}

(* The store buffer is a fixed-capacity FIFO ring of (location, drain
   completion time).  Drains are serial per core, so each completion
   time is fixed at enqueue and none is earlier than the entry before
   it: the entries still pending at any time form a suffix of the
   buffer.

   Drained entries are pruned only when the next store enqueues, and
   until then [forwardable] and [same_loc_drain_time] still see them:
   a load may forward from a store whose drain has already completed.
   This is the model's behaviour, kept deliberately.  Between two
   stores a core's time never decreases, so at most [sb_capacity]
   entries survive a prune and [sb_capacity + 1] slots suffice. *)
type core_state = {
  id : int;
  stream : Uop.t array;
  mutable index : int;
  mutable time : int;
  mutable prev_was_spin : bool;
  mutable loads_seen : int;
  mutable misses_seen : int;
  sb_loc : int array;
  sb_completes : int array;
  mutable sb_head : int;  (** Slot of the oldest entry. *)
  mutable sb_count : int;
  mutable sb_tail_completes : int;
  mutable last_release : int;
  rng : Rng.t;
}

(* Slot of the [i]-th oldest entry. *)
let slot core i =
  let j = core.sb_head + i in
  let size = Array.length core.sb_loc in
  if j >= size then j - size else j

(* The scans below are loops over local refs, not local recursive
   functions: a closure would be allocated on every call. *)
let forwardable core loc =
  let i = ref 0 in
  while !i < core.sb_count && core.sb_loc.(slot core !i) <> loc do
    incr i
  done;
  !i < core.sb_count

(* The newest same-location entry drains last. *)
let same_loc_drain_time core loc =
  let i = ref (core.sb_count - 1) in
  while !i >= 0 && core.sb_loc.(slot core !i) <> loc do
    decr i
  done;
  if !i < 0 then 0 else core.sb_completes.(slot core !i)

(* Index of the oldest entry still pending at [now]. *)
let first_pending core now =
  let i = ref 0 in
  while !i < core.sb_count && core.sb_completes.(slot core !i) <= now do
    incr i
  done;
  !i

(* Time at which occupancy drops to [threshold] or below. *)
let time_for_occupancy core now threshold =
  let first = first_pending core now in
  let excess = core.sb_count - first - threshold in
  if excess <= 0 then now
  else if first + excess > core.sb_count then invalid_arg "Perf.run: negative store-buffer threshold"
  else core.sb_completes.(slot core (first + excess - 1))

let prune core now =
  let n = first_pending core now in
  core.sb_head <- slot core n;
  core.sb_count <- core.sb_count - n

let push core loc completes =
  if core.sb_count = Array.length core.sb_loc then invalid_arg "Perf.run: store buffer overflow";
  let s = slot core core.sb_count in
  core.sb_loc.(s) <- loc;
  core.sb_completes.(s) <- completes;
  core.sb_count <- core.sb_count + 1

let run config streams =
  if Array.length streams > config.cores then
    invalid_arg "Perf.run: more streams than cores";
  let tm = config.timing in
  let memsys = Memsys.create tm ~cores:config.cores in
  let base_rng = Rng.create config.seed in
  let slots = tm.Timing.sb_capacity + 1 in
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
          sb_loc = Array.make slots 0;
          sb_completes = Array.make slots 0;
          sb_head = 0;
          sb_count = 0;
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
  let enqueue_store core loc ~extra_drain =
    let now = core.time in
    prune core now;
    (* Respect buffer capacity: stall until a slot frees up. *)
    let avail = time_for_occupancy core now (tm.Timing.sb_capacity - 1) in
    core.time <- Int.max now avail;
    let start = Int.max core.time core.sb_tail_completes in
    let completes = Memsys.store_drain memsys ~core:core.id ~loc ~now:start + extra_drain in
    core.sb_tail_completes <- completes;
    push core loc completes;
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
    let was_spin = match uop with Uop.Spin _ | Uop.Spin_light _ -> true | _ -> false in
    (match uop with
    | Uop.Busy n -> core.time <- core.time + Int.max 0 n
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
        core.time <- Int.max core.time (same_loc_drain_time core loc);
        do_load core loc;
        core.time <- core.time + tm.Timing.acquire_extra_cycles
    | Uop.Store loc -> enqueue_store core loc ~extra_drain:0
    | Uop.Store_release loc ->
        let avail = time_for_occupancy core core.time tm.Timing.release_drain_threshold in
        release_stall := !release_stall + Int.max 0 (avail - core.time);
        core.time <- Int.max core.time avail;
        enqueue_store core loc ~extra_drain:tm.Timing.release_drain_penalty_cycles;
        core.time <- core.time + tm.Timing.release_extra_cycles;
        core.last_release <- core.time
    | Uop.Fence_full ->
        let drained = Int.max core.time core.sb_tail_completes in
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
        fence_stall := !fence_stall + Int.max 0 (avail - core.time);
        core.time <- Int.max core.time avail + tm.Timing.lwsync_cycles
    | Uop.Fence_pipeline -> core.time <- core.time + tm.Timing.pipeline_flush_cycles
    | Uop.Counter_shared path ->
        (* Invocation counter in a line shared by every core: a
           read-modify-write that bounces the line (the perturbation
           the paper warns about). *)
        let loc = counter_base + (path * line_stride) in
        do_load core loc;
        core.time <- core.time + 1;
        enqueue_store core loc ~extra_drain:0
    | Uop.Counter_private path ->
        let loc =
          counter_base + (1024 * line_stride)
          + (((path * config.cores) + core.id) * line_stride)
        in
        do_load core loc;
        core.time <- core.time + 1;
        enqueue_store core loc ~extra_drain:0);
    core.prev_was_spin <- was_spin
  in
  (* Advance cores in global time order so shared-resource usage is
     causally consistent: always step the active core with the least
     (time, id).  [times] mirrors the cores' times, [max_int] once a
     core's stream is done, so the pick is one pass over an int array.
     Stepping a core changes no other core's time, so the chosen core
     keeps running, without a new pass, while it stays ahead of the
     best of the rest. *)
  let active core = core.index < Array.length core.stream in
  let ncores = Array.length cores in
  let times = Array.map (fun c -> if active c then c.time else max_int) cores in
  let rec loop () =
    let best = ref 0 and other = ref (-1) in
    for i = 1 to ncores - 1 do
      let t = times.(i) in
      if t < times.(!best) then begin
        other := !best;
        best := i
      end
      else if !other < 0 || t < times.(!other) then other := i
    done;
    if ncores > 0 && times.(!best) < max_int then begin
      let c = cores.(!best) in
      let other_time = if !other < 0 then max_int else times.(!other) in
      step c;
      while active c && (c.time < other_time || (c.time = other_time && c.id < !other)) do
        step c
      done;
      times.(c.id) <- (if active c then c.time else max_int);
      loop ()
    end
  in
  loop ();
  let per_core_cycles = Array.map (fun c -> Int.max c.time c.sb_tail_completes) cores in
  {
    wall_cycles = Array.fold_left Int.max 0 per_core_cycles;
    per_core_cycles;
    bus_transactions = Memsys.bus_transactions memsys;
    bus_wait_cycles = Memsys.bus_wait_cycles memsys;
    fence_stall_cycles = !fence_stall;
    release_stall_cycles = !release_stall;
    forwarded_loads = !forwarded;
    l1_hits = !hits;
    l1_misses = !misses;
    (* Every stream runs to its end. *)
    uops_executed = Array.fold_left (fun n s -> n + Array.length s) 0 streams;
  }

let wall_ns config stats = Timing.ns_of_cycles config.timing stats.wall_cycles

let sequence_cost_ns ?(repetitions = 2000) timing sequence =
  let config = { timing; cores = 1; seed = 7 } in
  let spacer = [ Uop.Busy 4 ] in
  let body = Array.of_list (List.concat_map (fun u -> u :: spacer) sequence) in
  let repeated = Array.concat (List.init repetitions (fun _ -> body)) in
  let with_seq = run config [| repeated |] in
  let spacer_only =
    Array.concat
      (List.init repetitions (fun _ -> Array.of_list (List.concat_map (fun _ -> spacer) sequence)))
  in
  let base = run config [| spacer_only |] in
  Timing.ns_of_cycles timing (with_seq.wall_cycles - base.wall_cycles)
  /. float_of_int repetitions
