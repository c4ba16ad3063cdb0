(* The operational machine as it was before its state became a flat
   int array: list windows, [IM] maps for bindings and memory, a
   [List.filter] over the window per readiness check, and a
   [Marshal.to_string] seen-set key per successor.  Kept verbatim, in
   test code only, as the oracle for [Relaxed]: the two must reach the
   same outcomes after visiting the same number of states, and draw
   the same random schedules. *)

open Wmm_isa
open Wmm_util

type config = {
  window_size : int;
  fifo_buffer : bool;
  reorder_loads : bool;
  synchronous_stores : bool;
}

let relaxed_config =
  { window_size = 8; fifo_buffer = false; reorder_loads = true; synchronous_stores = false }
let tso_config =
  { window_size = 8; fifo_buffer = true; reorder_loads = false; synchronous_stores = false }
let sc_config =
  { window_size = 1; fifo_buffer = true; reorder_loads = false; synchronous_stores = true }

type outcome = {
  registers : ((int * Instr.reg) * Instr.value) list;
  memory : (Instr.loc * Instr.value) list;
}

let compare_outcome (a : outcome) (b : outcome) = compare a b

module IM = Map.Make (Int)

(* Operand as resolved at decode time: immediates and
   already-concrete register values become [Val]; registers whose
   program-order-latest producer is still in flight become
   [From eid]. *)
type source = Val of int | From of int

(* A decoded, possibly executed instruction in the window. *)
type entry = {
  eid : int;
  at_pc : int;
  instr : Instr.t;
  sources : source list;  (** In the order of [Instr.input_regs]. *)
  executed : bool;
  result : int;  (** Register result (load value / ALU / stxr status); 0 otherwise. *)
  store_value : int;  (** Value written by an executed store; 0 otherwise. *)
  resolved_loc : int;  (** Location of an executed memory access; -1 otherwise. *)
}

type binding = Value of int | Producer of int

type buffer_entry =
  | Bstore of { loc : int; value : int; release : bool; eid : int }
      (** [eid] identifies the originating store so loads only
          forward from program-order-earlier entries. *)
  | Bmarker  (** Store-order marker from dmb ishst / lwsync / eieio. *)

type tstate = {
  pc : int;
  next_eid : int;
  window : entry list;  (** Oldest first. *)
  bindings : binding IM.t;
  written : unit IM.t;  (** Registers architecturally written so far. *)
}

type state = {
  threads : tstate array;
  buffers : buffer_entry list array;
  memory : int IM.t;
  monitors : int option array;  (** Per-thread exclusive monitor (location). *)
}

type action = Execute of int * int  (** thread, eid *) | Drain of int * int  (** thread, buffer index *)

(* ------------------------------------------------------------------ *)
(* Decoding / fetch.                                                   *)
(* ------------------------------------------------------------------ *)

let resolve_operand bindings = function
  | Instr.Imm v -> Val v
  | Instr.Reg r -> (
      match IM.find_opt r bindings with
      | Some (Value v) -> Val v
      | Some (Producer eid) -> From eid
      | None -> Val 0)

let operands_of_instr instr bindings =
  List.map (fun r -> resolve_operand bindings (Instr.Reg r)) (Instr.input_regs instr)

let has_unresolved_branch window =
  List.exists (fun e -> Instr.is_branch e.instr && not e.executed) window

(* Fetch instructions into the window up to capacity, stopping at an
   unresolved branch (no speculation). *)
let fetch config (program : Program.thread) t =
  let rec go t =
    if
      List.length t.window >= config.window_size
      || has_unresolved_branch t.window
      || t.pc < 0
      || t.pc >= Array.length program
    then t
    else begin
      let instr = program.(t.pc) in
      let sources = operands_of_instr instr t.bindings in
      let entry =
        {
          eid = t.next_eid;
          at_pc = t.pc;
          instr;
          sources;
          executed = false;
          result = 0;
          store_value = 0;
          resolved_loc = -1;
        }
      in
      let bindings =
        match Instr.output_reg instr with
        | Some r -> IM.add r (Producer entry.eid) t.bindings
        | None -> t.bindings
      in
      go
        {
          t with
          pc = t.pc + 1;
          next_eid = t.next_eid + 1;
          window = t.window @ [ entry ];
          bindings;
        }
    end
  in
  go t

(* Retire executed entries from the window head, substituting their
   results into later operands and the register bindings. *)
let retire t =
  let substitute eid value t =
    let window =
      List.map
        (fun e ->
          {
            e with
            sources = List.map (function From i when i = eid -> Val value | s -> s) e.sources;
          })
        t.window
    in
    let bindings =
      IM.map (function Producer i when i = eid -> Value value | b -> b) t.bindings
    in
    { t with window; bindings }
  in
  let rec go t =
    match t.window with
    | e :: rest when e.executed ->
        let t = { t with window = rest } in
        let t =
          match Instr.output_reg e.instr with
          | Some r -> substitute e.eid e.result { t with written = IM.add r () t.written }
          | None -> t
        in
        go t
    | _ -> t
  in
  go t

(* ------------------------------------------------------------------ *)
(* Readiness.                                                          *)
(* ------------------------------------------------------------------ *)

let entry_value window eid =
  let rec find = function
    | [] -> None
    | e :: rest -> if e.eid = eid then Some e else find rest
  in
  match find window with
  | Some e when e.executed -> Some e.result
  | Some _ | None -> None

let source_value window = function
  | Val v -> Some v
  | From eid -> entry_value window eid

let sources_ready window e = List.for_all (fun s -> source_value window s <> None) e.sources

let source_values window e = List.map (fun s -> Option.get (source_value window s)) e.sources

let older_entries window eid = List.filter (fun e -> e.eid < eid) window

let is_full_barrier = function
  | Instr.Barrier (Instr.Dmb_ish | Instr.Sync | Instr.Fence_sc) -> true
  | _ -> false

let is_load_barrier = function
  | Instr.Barrier (Instr.Dmb_ishld | Instr.Lwsync | Instr.Fence_acq | Instr.Fence_acq_rel)
    ->
      true
  | _ -> false

let is_store_marker_barrier = function
  | Instr.Barrier
      (Instr.Dmb_ishst | Instr.Lwsync | Instr.Eieio | Instr.Fence_rel | Instr.Fence_acq_rel)
    ->
      true
  | _ -> false

let is_pipeline_barrier = function
  | Instr.Barrier (Instr.Isb | Instr.Isync) -> true
  | _ -> false

let is_load e =
  match e.instr with Instr.Load _ | Instr.Load_exclusive _ -> true | _ -> false

let is_store e =
  match e.instr with Instr.Store _ | Instr.Store_exclusive _ -> true | _ -> false

let is_acquire_load e =
  match e.instr with
  | Instr.Load { order = Instr.Acquire | Instr.Acq_rel | Instr.Sc; _ }
  | Instr.Load_exclusive { order = Instr.Acquire | Instr.Acq_rel | Instr.Sc; _ } ->
      true
  | _ -> false

let is_release_store e =
  match e.instr with
  | Instr.Store { order = Instr.Release | Instr.Acq_rel | Instr.Sc; _ }
  | Instr.Store_exclusive { order = Instr.Release | Instr.Acq_rel | Instr.Sc; _ } ->
      true
  | _ -> false

(* The address a not-yet-executed memory entry will access, when its
   address operand is already resolvable. *)
let pending_address window e =
  match e.instr with
  | Instr.Load { addr; _ }
  | Instr.Load_exclusive { addr; _ }
  | Instr.Store { addr; _ }
  | Instr.Store_exclusive { addr; _ } -> (
      let source =
        match addr with
        | Instr.Imm l -> Some (Val l)
        | Instr.Reg _ -> (
            (* The address register is the only input for loads; for
               stores it follows the value sources. *)
            match (e.instr, e.sources) with
            | (Instr.Load _ | Instr.Load_exclusive _), [ s ] -> Some s
            | Instr.Store { src = Instr.Reg _; _ }, [ _; s ]
            | Instr.Store_exclusive { src = Instr.Reg _; _ }, [ _; s ] ->
                Some s
            | Instr.Store { src = Instr.Imm _; _ }, [ s ]
            | Instr.Store_exclusive { src = Instr.Imm _; _ }, [ s ] ->
                Some s
            | _ -> None)
      in
      match source with Some s -> source_value window s | None -> None)
  | _ -> None

(* Remove leading markers: a marker with nothing before it orders
   nothing anymore. *)
let rec normalise_buffer = function Bmarker :: rest -> normalise_buffer rest | b -> b

let buffer_has_release buffer =
  List.exists (function Bstore { release = true; _ } -> true | _ -> false) buffer

let can_execute config t buffer e =
  let older = older_entries t.window e.eid in
  let older_all_done = List.for_all (fun o -> o.executed) older in
  let older_loads_done = List.for_all (fun o -> (not (is_load o)) || o.executed) older in
  let older_stores_done = List.for_all (fun o -> (not (is_store o)) || o.executed) older in
  let blocking_acquire = List.exists (fun o -> is_acquire_load o && not o.executed) older in
  let blocking_pipeline =
    List.exists (fun o -> is_pipeline_barrier o.instr && not o.executed) older
  in
  if not (sources_ready t.window e) then false
  else if blocking_pipeline then false
  else if blocking_acquire && not (is_pipeline_barrier e.instr) then false
  else
    match e.instr with
    | Instr.Nop | Instr.Mov _ | Instr.Op _ -> true
    | Instr.Cbnz _ | Instr.Cbz _ -> true
    | Instr.Barrier (Instr.Dmb_ish | Instr.Sync | Instr.Fence_sc) ->
        older_all_done && buffer = []
    | Instr.Barrier (Instr.Dmb_ishld | Instr.Fence_acq) -> older_loads_done
    | Instr.Barrier (Instr.Lwsync | Instr.Fence_rel | Instr.Fence_acq_rel) ->
        older_loads_done && older_stores_done
    | Instr.Barrier (Instr.Dmb_ishst | Instr.Eieio) -> older_stores_done
    | Instr.Barrier (Instr.Isb | Instr.Isync) -> older_all_done
    | Instr.Store { order; _ } | Instr.Store_exclusive { order; _ } ->
        (* Stores enter the buffer in program order and never pass
           barriers that order stores. *)
        older_stores_done
        && (config.reorder_loads || older_loads_done)
        && List.for_all
             (fun o ->
               (not
                  (is_full_barrier o.instr || is_store_marker_barrier o.instr
                  || is_pipeline_barrier o.instr))
               || o.executed)
             older
        && (match order with
           | Instr.Release | Instr.Acq_rel | Instr.Sc ->
               older_loads_done && older_all_done
           | Instr.Plain | Instr.Acquire -> true)
        &&
        (* A store-exclusive writes through: it may not overtake an
           own buffered store to the same location. *)
        (match e.instr with
        | Instr.Store_exclusive _ -> (
            match pending_address t.window e with
            | None -> false
            | Some l ->
                not
                  (List.exists
                     (function Bstore { loc; _ } -> loc = l | Bmarker -> false)
                     buffer))
        | _ -> true)
    | Instr.Load { order; _ } | Instr.Load_exclusive { order; _ } -> (
        let barrier_clear =
          List.for_all
            (fun o ->
              (not (is_full_barrier o.instr || is_load_barrier o.instr)) || o.executed)
            older
        in
        let load_order_ok =
          if config.reorder_loads then
            (* Even relaxed machines keep same-location loads in
               order (coherence, CoRR); a load with an unresolved
               address blocks younger loads conservatively. *)
            let this_addr = pending_address t.window e in
            List.for_all
              (fun o ->
                if is_load o && not o.executed then
                  match (pending_address t.window o, this_addr) with
                  | Some l', Some l -> l' <> l
                  | _ -> false
                else true)
              older
          else List.for_all (fun o -> (not (is_load o)) || o.executed) older
        in
        (* A load may not bypass an older store whose address is
           unknown, nor an older unexecuted store to the same
           location (it will forward from it once executed). *)
        let this_addr = pending_address t.window e in
        let store_hazard_clear =
          match this_addr with
          | None -> false
          | Some l ->
              List.for_all
                (fun o ->
                  if is_store o && not o.executed then
                    match pending_address t.window o with
                    | None -> false
                    | Some l' -> l' <> l
                  else true)
                older
        in
        barrier_clear && load_order_ok && store_hazard_clear
        &&
        match order with
        | Instr.Acquire | Instr.Acq_rel | Instr.Sc ->
            (* RCsc: a load-acquire is ordered after every older
               store-release, whether still in the window or in the
               buffer. *)
            (not (buffer_has_release buffer))
            && List.for_all (fun o -> (not (is_release_store o)) || o.executed) older
        | Instr.Plain | Instr.Release -> true)

(* ------------------------------------------------------------------ *)
(* Effects.                                                            *)
(* ------------------------------------------------------------------ *)

let forwardable_value window buffer eid loc =
  (* Youngest program-order-earlier store to [loc] still visible
     locally, across both the window and the store buffer (a store
     can appear in both; the values agree). *)
  let candidates =
    List.filter_map
      (fun o ->
        if o.eid < eid && is_store o && o.executed && o.resolved_loc = loc then
          Some (o.eid, o.store_value)
        else None)
      window
    @ List.filter_map
        (function
          | Bstore { loc = l; value; eid = store_eid; _ } when l = loc && store_eid < eid ->
              Some (store_eid, value)
          | Bstore _ | Bmarker -> None)
        buffer
  in
  List.fold_left
    (fun acc (store_eid, value) ->
      match acc with
      | Some (best, _) when best >= store_eid -> acc
      | _ -> Some (store_eid, value))
    None candidates
  |> Option.map snd

let mark_executed ?(store_value = 0) t eid ~result ~resolved_loc =
  {
    t with
    window =
      List.map
        (fun e ->
          if e.eid = eid then { e with executed = true; result; store_value; resolved_loc }
          else e)
        t.window;
  }

let read_memory memory loc = match IM.find_opt loc memory with Some v -> v | None -> 0

(* [emit] receives the canonical memory event of each executed
   instruction (reads, globally visible writes, fences) keyed by the
   entry's eid, which numbers instructions in fetch = program order -
   sorting a thread's emissions by eid therefore reconstructs the
   program-order event trace even when the window executed them out of
   order.  Failed store-exclusives emit nothing, matching the
   canonical trace representation. *)
let execute_entry ?(emit = fun ~tid:_ ~eid:_ _ -> ()) config (program : Program.thread)
    state tid eid =
  let t = state.threads.(tid) in
  let e = List.find (fun e -> e.eid = eid) t.window in
  let values = source_values t.window e in
  let threads = Array.copy state.threads in
  let buffers = Array.copy state.buffers in
  let monitors = Array.copy state.monitors in
  let memory = ref state.memory in
  let finish t' =
    threads.(tid) <- fetch config program (retire t');
    { threads; buffers; memory = !memory; monitors }
  in
  (* A write to [loc] becoming visible revokes every other thread's
     exclusive monitor on it. *)
  let revoke_monitors loc =
    Array.iteri
      (fun i m -> if i <> tid && m = Some loc then monitors.(i) <- None)
      monitors
  in
  match e.instr with
  | Instr.Nop -> finish (mark_executed t eid ~result:0 ~resolved_loc:(-1))
  | Instr.Mov { src; _ } ->
      let v =
        match src with
        | Instr.Imm v -> v
        | Instr.Reg _ -> ( match values with [ v ] -> v | _ -> 0)
      in
      finish (mark_executed t eid ~result:v ~resolved_loc:(-1))
  | Instr.Op { op; a; b; _ } ->
      let take_imm operand values =
        match operand with
        | Instr.Imm v -> (v, values)
        | Instr.Reg _ -> (
            match values with v :: rest -> (v, rest) | [] -> (0, []))
      in
      let va, rest = take_imm a values in
      let vb, _ = take_imm b rest in
      finish (mark_executed t eid ~result:(Instr.eval_binop op va vb) ~resolved_loc:(-1))
  | Instr.Cbnz { offset; _ } | Instr.Cbz { offset; _ } ->
      let v = match values with [ v ] -> v | _ -> 0 in
      let taken = match e.instr with Instr.Cbnz _ -> v <> 0 | _ -> v = 0 in
      let t = mark_executed t eid ~result:0 ~resolved_loc:(-1) in
      let t = if taken then { t with pc = e.at_pc + 1 + offset } else t in
      finish t
  | Instr.Barrier b ->
      emit ~tid ~eid (Wmm_cert.Trace.Fence b);
      let t = mark_executed t eid ~result:0 ~resolved_loc:(-1) in
      (match b with
      | Instr.Dmb_ishst | Instr.Lwsync | Instr.Eieio | Instr.Fence_rel
      | Instr.Fence_acq_rel ->
          (* Normalise: a marker with nothing before it orders
             nothing (and would wedge full barriers waiting on an
             empty buffer). *)
          buffers.(tid) <- normalise_buffer (buffers.(tid) @ [ Bmarker ])
      | Instr.Dmb_ish | Instr.Dmb_ishld | Instr.Isb | Instr.Sync | Instr.Isync
      | Instr.Fence_acq | Instr.Fence_sc ->
          ());
      finish t
  | Instr.Store { src; addr; order } ->
      let value, loc =
        match (src, addr, values) with
        | Instr.Imm v, Instr.Imm l, [] -> (v, l)
        | Instr.Imm v, Instr.Reg _, [ l ] -> (v, l)
        | Instr.Reg _, Instr.Imm l, [ v ] -> (v, l)
        | Instr.Reg _, Instr.Reg _, [ v; l ] -> (v, l)
        | _ -> failwith "Relaxed: malformed store operands"
      in
      emit ~tid ~eid (Wmm_cert.Trace.Write { loc; value; order; rmw = false });
      if config.synchronous_stores then begin
        memory := IM.add loc value !memory;
        revoke_monitors loc
      end
      else
        buffers.(tid) <-
          buffers.(tid) @ [ Bstore { loc; value; release = order = Instr.Release; eid } ];
      finish (mark_executed ~store_value:value t eid ~result:value ~resolved_loc:loc)
  | Instr.Load { addr; order; _ } | Instr.Load_exclusive { addr; order; _ } ->
      let loc =
        match (addr, values) with
        | Instr.Imm l, [] -> l
        | Instr.Reg _, [ l ] -> l
        | _ -> failwith "Relaxed: malformed load operands"
      in
      let value =
        match forwardable_value t.window state.buffers.(tid) eid loc with
        | Some v -> v
        | None -> read_memory state.memory loc
      in
      emit ~tid ~eid (Wmm_cert.Trace.Read { loc; value; order });
      (match e.instr with
      | Instr.Load_exclusive _ -> monitors.(tid) <- Some loc
      | _ -> ());
      finish (mark_executed t eid ~result:value ~resolved_loc:loc)
  | Instr.Store_exclusive { src; addr; order; _ } ->
      let value, loc =
        match (src, addr, values) with
        | Instr.Imm v, Instr.Imm l, [] -> (v, l)
        | Instr.Imm v, Instr.Reg _, [ l ] -> (v, l)
        | Instr.Reg _, Instr.Imm l, [ v ] -> (v, l)
        | Instr.Reg _, Instr.Reg _, [ v; l ] -> (v, l)
        | _ -> failwith "Relaxed: malformed store-exclusive operands"
      in
      if monitors.(tid) = Some loc then begin
        (* Success: the exclusive write commits through the coherence
           layer immediately, revoking competing monitors. *)
        emit ~tid ~eid (Wmm_cert.Trace.Write { loc; value; order; rmw = true });
        memory := IM.add loc value !memory;
        monitors.(tid) <- None;
        revoke_monitors loc;
        finish (mark_executed ~store_value:value t eid ~result:0 ~resolved_loc:loc)
      end
      else begin
        monitors.(tid) <- None;
        finish (mark_executed t eid ~result:1 ~resolved_loc:(-1))
      end

(* ------------------------------------------------------------------ *)
(* Store buffer drains.                                                *)
(* ------------------------------------------------------------------ *)

(* A buffered store may not become globally visible while an older
   same-address (or unresolved-address) load is still pending in the
   window: draining it would let that load read a program-order-later
   value, violating coherence (CoWR). *)
let blocked_by_older_load window entry_eid entry_loc =
  List.exists
    (fun o ->
      is_load o && (not o.executed) && o.eid < entry_eid
      &&
      match pending_address window o with
      | None -> true
      | Some l -> l = entry_loc)
    window

let drainable_indices config window buffer =
  let buffer = normalise_buffer buffer in
  match buffer with
  | [] -> []
  | _ when config.fifo_buffer -> (
      match buffer with
      | Bstore { eid; loc; _ } :: _ when not (blocked_by_older_load window eid loc) -> [ 0 ]
      | _ -> [])
  | _ ->
      (* Any store before the first marker may drain, except when an
         earlier entry targets the same location (per-location FIFO),
         a release entry intervenes (release = full marker), or an
         older same-address load is still pending. *)
      let rec candidates idx seen_locs acc = function
        | [] -> List.rev acc
        | Bmarker :: _ -> List.rev acc
        | Bstore { release = true; loc; eid; _ } :: _ ->
            (* A release store may drain only if it is first. *)
            let acc =
              if idx = 0 && not (blocked_by_older_load window eid loc) then idx :: acc
              else acc
            in
            List.rev acc
        | Bstore { loc; eid; _ } :: rest ->
            let acc =
              if List.mem loc seen_locs || blocked_by_older_load window eid loc then acc
              else idx :: acc
            in
            candidates (idx + 1) (loc :: seen_locs) acc rest
      in
      candidates 0 [] [] buffer

let drain_at config state tid idx =
  let buffer = normalise_buffer state.buffers.(tid) in
  let rec remove i = function
    | [] -> failwith "Relaxed: drain index out of range"
    | b :: rest ->
        if i = 0 then (b, rest)
        else begin
          let removed, remaining = remove (i - 1) rest in
          (removed, b :: remaining)
        end
  in
  let removed, remaining = remove idx buffer in
  match removed with
  | Bmarker -> failwith "Relaxed: draining a marker"
  | Bstore { loc; value; _ } ->
      let buffers = Array.copy state.buffers in
      buffers.(tid) <- normalise_buffer remaining;
      let monitors = Array.copy state.monitors in
      Array.iteri
        (fun i m -> if i <> tid && m = Some loc then monitors.(i) <- None)
        monitors;
      ignore config;
      { state with buffers; memory = IM.add loc value state.memory; monitors }

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)
(* ------------------------------------------------------------------ *)

let enabled_actions config state =
  let actions = ref [] in
  Array.iteri
    (fun tid t ->
      List.iter
        (fun e ->
          if (not e.executed) && can_execute config t state.buffers.(tid) e then
            actions := Execute (tid, e.eid) :: !actions)
        t.window;
      List.iter
        (fun idx -> actions := Drain (tid, idx) :: !actions)
        (drainable_indices config t.window state.buffers.(tid)))
    state.threads;
  List.rev !actions

let apply_action ?emit config (program : Program.t) state = function
  | Execute (tid, eid) ->
      execute_entry ?emit config program.Program.threads.(tid) state tid eid
  | Drain (tid, idx) -> drain_at config state tid idx

let initial_state (program : Program.t) config =
  let memory =
    List.fold_left
      (fun acc l -> IM.add l (Program.initial_value program l) acc)
      IM.empty (Program.locations program)
  in
  let threads =
    Array.map
      (fun _ ->
        { pc = 0; next_eid = 0; window = []; bindings = IM.empty; written = IM.empty })
      program.Program.threads
  in
  Array.iteri
    (fun tid t -> threads.(tid) <- fetch config program.Program.threads.(tid) t)
    threads;
  {
    threads;
    buffers = Array.map (fun _ -> []) program.Program.threads;
    memory;
    monitors = Array.map (fun _ -> None) program.Program.threads;
  }

let finished state =
  Array.for_all (fun t -> t.window = []) state.threads
  && Array.for_all (fun b -> normalise_buffer b = []) state.buffers

let outcome_of_state (program : Program.t) state =
  let registers =
    Array.to_list state.threads
    |> List.mapi (fun tid t ->
           IM.fold
             (fun r () acc ->
               let v =
                 match IM.find_opt r t.bindings with
                 | Some (Value v) -> v
                 | Some (Producer _) | None -> 0
               in
               ((tid, r), v) :: acc)
             t.written [])
    |> List.concat |> List.sort compare
  in
  let memory =
    List.map (fun l -> (l, read_memory state.memory l)) (Program.locations program)
  in
  { registers; memory }

let run_internal ?emit config ~seed (program : Program.t) =
  (match Program.validate program with Ok () -> () | Error m -> invalid_arg m);
  let rng = Rng.create seed in
  let rec go state steps =
    if steps > 100_000 then failwith "Relaxed.run: step limit exceeded";
    match enabled_actions config state with
    | [] ->
        if finished state then outcome_of_state program state
        else failwith "Relaxed.run: machine deadlocked"
    | actions ->
        let action = Rng.choose rng (Array.of_list actions) in
        go (apply_action ?emit config program state action) (steps + 1)
  in
  go (initial_state program config) 0

let run config ~seed program = run_internal config ~seed program

let run_traced config ~seed (program : Program.t) =
  let traces = Array.map (fun _ -> ref []) program.Program.threads in
  let emit ~tid ~eid action = traces.(tid) := (eid, action) :: !(traces.(tid)) in
  let outcome = run_internal ~emit config ~seed program in
  let per_thread =
    Array.map
      (fun entries ->
        List.sort (fun (a, _) (b, _) -> compare a b) !entries |> List.map snd)
      traces
  in
  (outcome, per_thread)

let collect config ~seed ~iterations program =
  let table = Hashtbl.create 64 in
  for i = 0 to iterations - 1 do
    if i land 63 = 0 then Cancel.check_ambient ();
    let o = run config ~seed:(seed + (i * 7919)) program in
    let current = try Hashtbl.find table o with Not_found -> 0 in
    Hashtbl.replace table o (current + 1)
  done;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare_outcome a b)

let enumerate ?(max_states = 500_000) config (program : Program.t) =
  (match Program.validate program with Ok () -> () | Error m -> invalid_arg m);
  let seen = Hashtbl.create 4096 in
  let outcomes = Hashtbl.create 64 in
  let visited = ref 0 in
  let key state =
    Marshal.to_string
      ( Array.map (fun t -> (t.pc, t.window, IM.bindings t.bindings)) state.threads,
        state.buffers,
        IM.bindings state.memory,
        state.monitors )
      []
  in
  let rec explore state =
    let k = key state in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      incr visited;
      if !visited land 1023 = 0 then Cancel.check_ambient ();
      if !visited > max_states then failwith "Relaxed.enumerate: state limit exceeded";
      match enabled_actions config state with
      | [] ->
          if finished state then Hashtbl.replace outcomes (outcome_of_state program state) ()
          else failwith "Relaxed.enumerate: machine deadlocked"
      | actions ->
          List.iter (fun a -> explore (apply_action config program state a)) actions
    end
  in
  explore (initial_state program config);
  Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] |> List.sort compare_outcome
