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

(* The helpers below take the line's cache set, computed once per
   access. *)
let holds t core set line = if t.tags.(core).(set) = line then t.states.(core).(set) else Invalid

let set_state t core set line st =
  t.tags.(core).(set) <- line;
  t.states.(core).(set) <- st

let invalidate_others t core set line =
  for other = 0 to t.cores - 1 do
    if other <> core && t.tags.(other).(set) = line then t.states.(other).(set) <- Invalid
  done

(* Acquire the bus at [now]: returns the grant time and accounts for
   the wait.  Transactions are serialised, which is what couples the
   cores' barrier activity; the request queue is bounded at one
   outstanding transaction per core, so a burst of queued store
   drains cannot starve later requests indefinitely. *)
let bus_grant t now =
  let cap = t.timing.Timing.bus_occupancy_cycles * t.cores in
  let backlog = Int.min t.bus_free_at (now + cap) in
  let grant = Int.max now backlog in
  t.bus_wait <- t.bus_wait + (grant - now);
  t.bus_free_at <- Int.max t.bus_free_at (grant + t.timing.Timing.bus_occupancy_cycles);
  t.transactions <- t.transactions + 1;
  grant

(* The lowest-numbered other core holding the line in a valid state,
   or -1: an early-exit scan with no polymorphic compare. *)
let rec remote_holder t core set line other =
  if other >= t.cores then -1
  else if other <> core && t.tags.(other).(set) = line then
    match t.states.(other).(set) with
    | Invalid -> remote_holder t core set line (other + 1)
    | Shared | Exclusive -> other
  else remote_holder t core set line (other + 1)

(* That core's state, [Invalid] when there is none. *)
let holder_state t holder set = if holder < 0 then Invalid else t.states.(holder).(set)

type access_cost = { ready_at : int; hit : bool }

let load t ~core ~loc ~now =
  let tm = t.timing in
  let line = line_of t loc in
  let set = set_of t line in
  match holds t core set line with
  | Shared | Exclusive -> { ready_at = now + tm.Timing.l1_hit_cycles; hit = true }
  | Invalid ->
      let grant = bus_grant t now in
      let holder = remote_holder t core set line 0 in
      let transfer =
        match holder_state t holder set with
        | Exclusive ->
            (* Dirty in another cache: cache-to-cache transfer,
               both end Shared. *)
            set_state t holder set line Shared;
            tm.Timing.remote_transfer_cycles
        | Shared -> tm.Timing.l2_hit_cycles
        | Invalid -> tm.Timing.memory_cycles
      in
      set_state t core set line Shared;
      { ready_at = grant + transfer; hit = false }

let store_drain t ~core ~loc ~now =
  let tm = t.timing in
  let line = line_of t loc in
  let set = set_of t line in
  match holds t core set line with
  | Exclusive -> now + tm.Timing.sb_drain_owned_cycles
  | own ->
      (* Upgrade: bus transaction to invalidate other copies, plus a
         fetch when we do not hold the line at all. *)
      let grant = bus_grant t now in
      let base =
        match own with
        | Shared -> tm.Timing.sb_drain_shared_cycles
        | Invalid | Exclusive ->
            tm.Timing.sb_drain_shared_cycles
            + (match holder_state t (remote_holder t core set line 0) set with
              | Exclusive -> tm.Timing.remote_transfer_cycles
              | Shared | Invalid -> tm.Timing.l2_hit_cycles)
      in
      invalidate_others t core set line;
      set_state t core set line Exclusive;
      grant + base

let bus_transactions t = t.transactions
let bus_wait_cycles t = t.bus_wait
