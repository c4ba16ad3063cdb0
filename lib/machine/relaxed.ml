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

(* ------------------------------------------------------------------ *)
(* State layout.                                                       *)
(* ------------------------------------------------------------------ *)

(* A machine state is one int array.  Its first [key_off] ints are
   bookkeeping that no transition reads: each thread's next eid, then a
   written flag per register slot (the registers an outcome reports).
   The rest is the key region, which the seen set compares:

   - per thread, at [off]: the pc, the window length, [cap] window
     entries of [entry_stride] ints (oldest first; eids are consecutive
     and end at the thread's next eid), then a (tag, value) binding per
     register slot;
   - memory at the program's locations ([mem_off]);
   - a (tag, location) exclusive monitor per thread ([mon_off]);
   - at [tail_off] the count and sorted (location, value) pairs of
     written locations outside the program's, then per thread a buffer
     length and that many buffer entries of [buffer_stride] ints.

   Everything up to [tail_off] sits at a fixed offset; the tail
   changes length when a buffer does. *)

let entry_stride = 7

(* Entry fields: pc, flags, result (load value / ALU / stxr status),
   value written by an executed store, location of an executed memory
   access (-1 otherwise), then the two operands in the order of
   [Instr.input_regs].  An operand is a value, or, with its flag bit
   set, the eid of the in-flight window entry producing it. *)
let f_pc = 0
let f_flags = 1
let f_result = 2
let f_store_value = 3
let f_loc = 4
let f_src = 5
let executed_bit = 1
let from_bit k = 2 lsl k

(* Binding tags: never written (reads 0), a value, or the eid of the
   in-flight producer. *)
let b_absent = 0
let b_value = 1
let b_producer = 2

(* Buffer entries: kind, location, value, eid of the originating store
   (loads only forward from program-order-earlier entries).  A marker
   (from dmb ishst / lwsync / eieio) keeps zeros in the other fields. *)
let buffer_stride = 4
let k_marker = 0
let k_store = 1
let k_release = 2

(* Instruction classes for the readiness checks. *)
let c_load = 1
let c_store = 2
let c_acquire = 4  (* load with acquire, acq_rel or sc order *)
let c_release = 8  (* store with release, acq_rel or sc order *)
let c_full = 16  (* dmb ish, sync, fence sc *)
let c_load_barrier = 32  (* dmb ishld, lwsync, fence acq / acq_rel *)
let c_marker = 64  (* dmb ishst, lwsync, eieio, fence rel / acq_rel *)
let c_pipeline = 128  (* isb, isync *)
let c_branch = 256
let c_exclusive = 512
let c_any = 1024

(* What an instruction waits for before it may execute. *)
let r_free = 0
let r_full = 1  (* the whole window, and an empty buffer *)
let r_loads = 2
let r_loads_stores = 3
let r_stores = 4
let r_all = 5
let r_store = 6
let r_load = 7

let order_bit strong = function
  | Instr.Acquire | Instr.Acq_rel | Instr.Sc when strong = c_acquire -> c_acquire
  | Instr.Release | Instr.Acq_rel | Instr.Sc when strong = c_release -> c_release
  | _ -> 0

let classify = function
  | Instr.Load { order; _ } -> (c_load lor order_bit c_acquire order, r_load)
  | Instr.Load_exclusive { order; _ } ->
      (c_load lor c_exclusive lor order_bit c_acquire order, r_load)
  | Instr.Store { order; _ } -> (c_store lor order_bit c_release order, r_store)
  | Instr.Store_exclusive { order; _ } ->
      (c_store lor c_exclusive lor order_bit c_release order, r_store)
  | Instr.Barrier (Instr.Dmb_ish | Instr.Sync | Instr.Fence_sc) -> (c_full, r_full)
  | Instr.Barrier (Instr.Dmb_ishld | Instr.Fence_acq) -> (c_load_barrier, r_loads)
  | Instr.Barrier (Instr.Lwsync | Instr.Fence_acq_rel) ->
      (c_load_barrier lor c_marker, r_loads_stores)
  | Instr.Barrier Instr.Fence_rel -> (c_marker, r_loads_stores)
  | Instr.Barrier (Instr.Dmb_ishst | Instr.Eieio) -> (c_marker, r_stores)
  | Instr.Barrier (Instr.Isb | Instr.Isync) -> (c_pipeline, r_all)
  | Instr.Cbnz _ | Instr.Cbz _ -> (c_branch, r_free)
  | Instr.Nop | Instr.Mov _ | Instr.Op _ -> (0, r_free)

type thread_info = {
  code : Instr.t array;
  cls : int array;
  rule : int array;
  nsrc : int array;
  src_slot : int array;  (** Two per pc: register slot of each operand, -1 if never written. *)
  addr_src : int array;  (** Operand holding the address; -1 for an immediate. *)
  addr_imm : int array;
  out_slot : int array;  (** -1 when the instruction writes no register. *)
  regs : int array;  (** Register of each slot, ascending. *)
  branches : bool;  (** Without branches an entry's pc is its eid. *)
  off : int;
  regs_off : int;
  written_off : int;
}

type machine = {
  config : config;
  threads : thread_info array;
  locs : int array;  (** [Program.locations], ascending. *)
  loc_slots : int array;
      (** Index in [locs] of each location below 1024 (-1 if absent); larger ones are searched. *)
  mem_off : int;
  mon_off : int;
  tail_off : int;
  init : int array;
  mutable scratch : int array;  (** Enabled actions under construction. *)
  mutable key : Bytes.t;
}

let output_regs code =
  Array.to_list code |> List.filter_map Instr.output_reg |> List.sort_uniq compare |> Array.of_list

let thread_info config ~off ~written_off ~regs (code : Instr.t array) =
  let n = Array.length code in
  let slot_of r =
    let rec find i =
      if i = Array.length regs then -1 else if regs.(i) = r then i else find (i + 1)
    in
    find 0
  in
  let inputs = Array.map Instr.input_regs code in
  let src_slot = Array.make (2 * n) (-1) in
  Array.iteri (fun pc rs -> List.iteri (fun k r -> src_slot.((2 * pc) + k) <- slot_of r) rs) inputs;
  let addr_of = function
    | Instr.Load { addr; _ }
    | Instr.Load_exclusive { addr; _ }
    | Instr.Store { addr; _ }
    | Instr.Store_exclusive { addr; _ } ->
        Some addr
    | _ -> None
  in
  let loops =
    Array.exists
      (function Instr.Cbnz { offset; _ } | Instr.Cbz { offset; _ } -> offset < 0 | _ -> false)
      code
  in
  let branches = Array.exists Instr.is_branch code in
  (* Without a backward branch every pc is fetched at most once. *)
  let cap = max 0 (if loops then config.window_size else min config.window_size n) in
  let regs_off = off + 2 + (cap * entry_stride) in
  let classes = Array.map classify code in
  ( {
      code;
      cls = Array.map fst classes;
      rule = Array.map snd classes;
      nsrc = Array.map List.length inputs;
      src_slot;
      addr_src =
        Array.mapi
          (fun pc i ->
            match addr_of i with Some (Instr.Reg _) -> List.length inputs.(pc) - 1 | _ -> -1)
          code;
      addr_imm = Array.map (fun i -> match addr_of i with Some (Instr.Imm l) -> l | _ -> 0) code;
      out_slot =
        Array.map (fun i -> match Instr.output_reg i with Some r -> slot_of r | None -> -1) code;
      regs;
      branches;
      off;
      regs_off;
      written_off;
    },
    regs_off + (2 * Array.length regs) )

(* ------------------------------------------------------------------ *)
(* Operands, addresses, memory.                                        *)
(* ------------------------------------------------------------------ *)

let entry off i = off + 2 + (i * entry_stride)

(* An operand is ready once it is a value or its producer (an older
   entry of the same window: retiring a producer substitutes its
   result) has executed. *)
let src_ready s off base e k =
  s.(e + f_flags) land from_bit k = 0
  || s.(entry off (s.(e + f_src + k) - base) + f_flags) land executed_bit <> 0

let src_value s off base e k =
  if s.(e + f_flags) land from_bit k = 0 then s.(e + f_src + k)
  else s.(entry off (s.(e + f_src + k) - base) + f_result)

(* The address a memory entry accesses, when it is already known. *)
let addr_known ti s off base e pc =
  let k = ti.addr_src.(pc) in
  k < 0 || src_ready s off base e k

let addr_of ti s off base e pc =
  let k = ti.addr_src.(pc) in
  if k < 0 then ti.addr_imm.(pc) else src_value s off base e k

let loc_slot m loc =
  if loc >= 0 && loc < Array.length m.loc_slots then m.loc_slots.(loc)
  else
    let rec find i =
      if i = Array.length m.locs then -1 else if m.locs.(i) = loc then i else find (i + 1)
    in
    find 0

let read_memory m s loc =
  let slot = loc_slot m loc in
  if slot >= 0 then s.(m.mem_off + slot)
  else
    let rec find i n =
      if n = 0 then 0 else if s.(i) = loc then s.(i + 1) else find (i + 2) (n - 1)
    in
    find (m.tail_off + 1) s.(m.tail_off)

(* A copy of [s] with [del] ints at [pos] replaced by [ins] zeros.
   One runtime call copies the array to its new length (appending a
   block allocated inline for the common four-int buffer entry); the
   short end of the tail from [pos] on is then moved by hand. *)
let splice s pos del ins =
  let len = Array.length s in
  let d =
    if ins <= del then Array.sub s 0 (len - del + ins)
    else Array.append s (if ins - del = 4 then [| 0; 0; 0; 0 |] else Array.make (ins - del) 0)
  in
  for i = pos + ins to len - del + ins - 1 do
    d.(i) <- s.(i - ins + del)
  done;
  for i = pos to pos + ins - 1 do
    d.(i) <- 0
  done;
  d

(* Writes in place when it can; a first write outside the program's
   locations returns a longer copy. *)
let write_memory m s loc v =
  let slot = loc_slot m loc in
  if slot >= 0 then begin
    s.(m.mem_off + slot) <- v;
    s
  end
  else
    let n = s.(m.tail_off) in
    let rec find i k =
      if k = n || s.(i) > loc then begin
        let s = splice s i 0 2 in
        s.(m.tail_off) <- n + 1;
        s.(i) <- loc;
        s.(i + 1) <- v;
        s
      end
      else if s.(i) = loc then begin
        s.(i + 1) <- v;
        s
      end
      else find (i + 2) (k + 1)
    in
    find (m.tail_off + 1) 0

(* A write to [loc] becoming visible revokes every other thread's
   exclusive monitor on it. *)
let revoke_monitors m s tid loc =
  for i = 0 to Array.length m.threads - 1 do
    let p = m.mon_off + (2 * i) in
    if i <> tid && s.(p) = 1 && s.(p + 1) = loc then begin
      s.(p) <- 0;
      s.(p + 1) <- 0
    end
  done

let set_monitor m s tid loc =
  s.(m.mon_off + (2 * tid)) <- 1;
  s.(m.mon_off + (2 * tid) + 1) <- loc

let clear_monitor m s tid =
  s.(m.mon_off + (2 * tid)) <- 0;
  s.(m.mon_off + (2 * tid) + 1) <- 0

let buffer_off m s tid =
  let b = ref (m.tail_off + 1 + (2 * s.(m.tail_off))) in
  for _ = 1 to tid do
    b := !b + 1 + (buffer_stride * s.(!b))
  done;
  !b

(* A copy of [s] with one entry appended to the buffer at [b]. *)
let buffer_append s b kind ~loc ~value ~eid =
  let n = s.(b) in
  let p = b + 1 + (n * buffer_stride) in
  let s = splice s p 0 buffer_stride in
  s.(b) <- n + 1;
  s.(p) <- kind;
  s.(p + 1) <- loc;
  s.(p + 2) <- value;
  s.(p + 3) <- eid;
  s

(* ------------------------------------------------------------------ *)
(* Fetch and retire.                                                   *)
(* ------------------------------------------------------------------ *)

(* Fetch instructions into the window up to capacity, stopping at an
   unresolved branch (no speculation).  In place. *)
let fetch m s tid =
  let ti = m.threads.(tid) in
  let off = ti.off in
  let n = Array.length ti.code in
  (* Fetch stops right after a branch, so an unresolved branch can
     only be the youngest entry. *)
  let last = entry off (s.(off + 1) - 1) in
  let unresolved =
    ref
      (s.(off + 1) > 0
      && ti.cls.(s.(last)) land c_branch <> 0
      && s.(last + f_flags) land executed_bit = 0)
  in
  while (not !unresolved) && s.(off + 1) < m.config.window_size && s.(off) >= 0 && s.(off) < n do
    let pc = s.(off) and w = s.(off + 1) and eid = s.(tid) in
    let e = entry off w in
    let flags = ref 0 in
    for k = 0 to 1 do
      let slot = if k < ti.nsrc.(pc) then ti.src_slot.((2 * pc) + k) else -1 in
      let b = ti.regs_off + (2 * slot) in
      if slot < 0 || s.(b) = b_absent then s.(e + f_src + k) <- 0
      else begin
        if s.(b) = b_producer then flags := !flags lor from_bit k;
        s.(e + f_src + k) <- s.(b + 1)
      end
    done;
    s.(e + f_pc) <- pc;
    s.(e + f_flags) <- !flags;
    s.(e + f_result) <- 0;
    s.(e + f_store_value) <- 0;
    s.(e + f_loc) <- -1;
    let o = ti.out_slot.(pc) in
    if o >= 0 then begin
      s.(ti.regs_off + (2 * o)) <- b_producer;
      s.(ti.regs_off + (2 * o) + 1) <- eid
    end;
    s.(off) <- pc + 1;
    s.(off + 1) <- w + 1;
    s.(tid) <- eid + 1;
    if ti.cls.(pc) land c_branch <> 0 then unresolved := true
  done

(* Retire executed entries from the window head, substituting their
   results into later operands and the register bindings.  In place. *)
let retire m s tid =
  let ti = m.threads.(tid) in
  let off = ti.off in
  let w = s.(off + 1) in
  let base = s.(tid) - w in
  let k = ref 0 in
  while !k < w && s.(entry off !k + f_flags) land executed_bit <> 0 do
    let e = entry off !k in
    let o = ti.out_slot.(s.(e)) in
    if o >= 0 then begin
      s.(ti.written_off + o) <- 1;
      let eid = base + !k and v = s.(e + f_result) in
      for j = !k + 1 to w - 1 do
        let e' = entry off j in
        for src = 0 to 1 do
          if s.(e' + f_flags) land from_bit src <> 0 && s.(e' + f_src + src) = eid then begin
            s.(e' + f_flags) <- s.(e' + f_flags) land lnot (from_bit src);
            s.(e' + f_src + src) <- v
          end
        done
      done;
      for slot = 0 to Array.length ti.regs - 1 do
        let b = ti.regs_off + (2 * slot) in
        if s.(b) = b_producer && s.(b + 1) = eid then begin
          s.(b) <- b_value;
          s.(b + 1) <- v
        end
      done
    end;
    incr k
  done;
  if !k > 0 then begin
    Array.blit s (entry off !k) s (entry off 0) ((w - !k) * entry_stride);
    s.(off + 1) <- w - !k
  end

(* ------------------------------------------------------------------ *)
(* Readiness.                                                          *)
(* ------------------------------------------------------------------ *)

let buffer_has_release s b =
  let rec go i = i < s.(b) && (s.(b + 1 + (i * buffer_stride)) = k_release || go (i + 1)) in
  go 0

let buffer_has_store_to s b loc =
  let rec go i =
    i < s.(b)
    && ((s.(b + 1 + (i * buffer_stride)) <> k_marker && s.(b + 2 + (i * buffer_stride)) = loc)
       || go (i + 1))
  in
  go 0

(* Whether some entry among the window's first [i] of class [cls] is
   unexecuted and may access [loc]: its address is unknown, or known
   and equal. *)
let pending_at ti s off base i cls ~known ~loc =
  let rec go j =
    j < i
    &&
    let e = entry off j in
    let pc = s.(e) in
    (ti.cls.(pc) land cls <> 0
    && s.(e + f_flags) land executed_bit = 0
    && ((not known) || (not (addr_known ti s off base e pc)) || addr_of ti s off base e pc = loc))
    || go (j + 1)
  in
  go 0

(* Whether window entry [i] may execute.  [pend] holds the class bits
   (with [c_any]) of every older unexecuted entry; [b] is the offset of
   the thread's buffer. *)
let can_execute m ti s off base i pend b =
  let e = entry off i in
  let pc = s.(e) in
  let c = ti.cls.(pc) in
  let rule = ti.rule.(pc) in
  let ready =
    (ti.nsrc.(pc) < 1 || src_ready s off base e 0) && (ti.nsrc.(pc) < 2 || src_ready s off base e 1)
  in
  if not ready then false
  else if pend land c_pipeline <> 0 then false
  else if pend land c_acquire <> 0 && rule <> r_all then false
  else if rule = r_free then true
  else if rule = r_full then pend = 0 && s.(b) = 0
  else if rule = r_loads then pend land c_load = 0
  else if rule = r_loads_stores then pend land (c_load lor c_store) = 0
  else if rule = r_stores then pend land c_store = 0
  else if rule = r_all then pend = 0
  else if rule = r_store then
    (* Stores enter the buffer in program order and never pass
       barriers that order stores. *)
    pend land c_store = 0
    && (m.config.reorder_loads || pend land c_load = 0)
    && pend land (c_full lor c_marker lor c_pipeline) = 0
    && (c land c_release = 0 || pend = 0)
    &&
    (* A store-exclusive writes through: it may not overtake an own
       buffered store to the same location. *)
    (c land c_exclusive = 0
    || addr_known ti s off base e pc
       && not (buffer_has_store_to s b (addr_of ti s off base e pc)))
  else
    let known = addr_known ti s off base e pc in
    let loc = addr_of ti s off base e pc in
    pend land (c_full lor c_load_barrier) = 0
    (* Even relaxed machines keep same-location loads in order
       (coherence, CoRR); a load with an unresolved address blocks
       younger loads conservatively. *)
    && (pend land c_load = 0
       || (m.config.reorder_loads && not (pending_at ti s off base i c_load ~known ~loc)))
    (* A load may not bypass an older store whose address is unknown,
       nor an older unexecuted store to the same location (it will
       forward from it once executed). *)
    && known
    && (pend land c_store = 0 || not (pending_at ti s off base i c_store ~known ~loc))
    &&
    (* RCsc: a load-acquire is ordered after every older store-release,
       whether still in the window or in the buffer. *)
    (c land c_acquire = 0 || ((not (buffer_has_release s b)) && pend land c_release = 0))

(* ------------------------------------------------------------------ *)
(* Store buffer drains.                                                *)
(* ------------------------------------------------------------------ *)

(* A buffered store may not become globally visible while an older
   same-address (or unresolved-address) load is still pending in the
   window: draining it would let that load read a program-order-later
   value, violating coherence (CoWR). *)
let blocked_by_older_load ti s off base w eid loc =
  pending_at ti s off base (min w (eid - base)) c_load ~known:true ~loc

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)
(* ------------------------------------------------------------------ *)

(* An action is [(index lsl 21) lor (tid lsl 1) lor kind]: kind 0
   executes window entry [index], kind 1 drains buffer entry [index]. *)
let execute_action tid i = (i lsl 21) lor (tid lsl 1)
let drain_action tid i = (i lsl 21) lor (tid lsl 1) lor 1

let push m k a =
  if k = Array.length m.scratch then begin
    let bigger = Array.make (2 * k) 0 in
    Array.blit m.scratch 0 bigger 0 k;
    m.scratch <- bigger
  end;
  m.scratch.(k) <- a;
  k + 1

(* Whether buffer entry [i] (at [b]) must wait for an older load. *)
let drain_blocked ti s off base w b i =
  let p = b + 1 + (i * buffer_stride) in
  blocked_by_older_load ti s off base w s.(p + 3) s.(p + 1)

(* Whether a buffer entry before [i] stores to the location of [i]. *)
let earlier_same_loc s b i =
  let loc = s.(b + 2 + (i * buffer_stride)) in
  let rec go j = j < i && (s.(b + 2 + (j * buffer_stride)) = loc || go (j + 1)) in
  go 0

(* Every enabled action: per thread, the executable window entries
   oldest first, then the drainable buffer entries.  One pass over
   each window accumulates the classes of the older unexecuted
   entries. *)
let enabled_actions m s =
  let k = ref 0 in
  let b = ref (m.tail_off + 1 + (2 * s.(m.tail_off))) in
  for tid = 0 to Array.length m.threads - 1 do
    let ti = m.threads.(tid) in
    let off = ti.off in
    let w = s.(off + 1) in
    let base = s.(tid) - w in
    let b' = !b in
    let pend = ref 0 in
    for i = 0 to w - 1 do
      let e = entry off i in
      if s.(e + f_flags) land executed_bit = 0 then begin
        if can_execute m ti s off base i !pend b' then k := push m !k (execute_action tid i);
        pend := !pend lor ti.cls.(s.(e)) lor c_any
      end
    done;
    let len = s.(b') in
    if len > 0 && m.config.fifo_buffer then begin
      if s.(b' + 1) <> k_marker && not (drain_blocked ti s off base w b' 0) then
        k := push m !k (drain_action tid 0)
    end
    else begin
      (* Any store before the first marker may drain, except when an
         earlier entry targets the same location (per-location FIFO),
         a release entry intervenes (release = full marker), or an
         older same-address load is still pending. *)
      let i = ref 0 in
      while !i < len do
        let kind = s.(b' + 1 + (!i * buffer_stride)) in
        if kind = k_store then begin
          if not (earlier_same_loc s b' !i || drain_blocked ti s off base w b' !i) then
            k := push m !k (drain_action tid !i);
          incr i
        end
        else begin
          (* A release store may drain only if it is first. *)
          if kind = k_release && !i = 0 && not (drain_blocked ti s off base w b' 0) then
            k := push m !k (drain_action tid 0);
          i := len
        end
      done
    end;
    b := b' + 1 + (buffer_stride * len)
  done;
  Array.sub m.scratch 0 !k

(* ------------------------------------------------------------------ *)
(* Effects.                                                            *)
(* ------------------------------------------------------------------ *)

(* Youngest program-order-earlier store to [loc] still visible
   locally, across both the window and the store buffer (a store can
   appear in both; the values agree, and the window's wins). *)
let forwardable_value ti s off base w b eid loc =
  let best = ref (-1) and value = ref None in
  for j = 0 to w - 1 do
    let e = entry off j in
    if base + j < eid && base + j > !best
       && ti.cls.(s.(e)) land c_store <> 0
       && s.(e + f_flags) land executed_bit <> 0
       && s.(e + f_loc) = loc
    then begin
      best := base + j;
      value := Some s.(e + f_store_value)
    end
  done;
  for j = 0 to s.(b) - 1 do
    let p = b + 1 + (j * buffer_stride) in
    if s.(p) <> k_marker && s.(p + 1) = loc && s.(p + 3) < eid && s.(p + 3) > !best then begin
      best := s.(p + 3);
      value := Some s.(p + 2)
    end
  done;
  !value

(* An immediate, or the value its register operand resolved to. *)
let operand o v = match o with Instr.Imm x -> x | Instr.Reg _ -> v

(* The successor of [s] after window entry [i] of [tid] executes;
   [s] itself is left as it was.  [emit] receives the canonical memory
   event of each executed instruction (reads, globally visible writes,
   fences) keyed by the entry's eid, which numbers instructions in
   fetch = program order - sorting a thread's emissions by eid
   therefore reconstructs the program-order event trace even when the
   window executed them out of order.  Failed store-exclusives emit
   nothing, matching the canonical trace representation. *)
let execute ?emit m s tid i =
  let ti = m.threads.(tid) in
  let off = ti.off in
  let w = s.(off + 1) in
  let base = s.(tid) - w in
  let e = entry off i in
  let pc = s.(e) in
  let eid = base + i in
  let n = ti.nsrc.(pc) in
  let v0 = if n > 0 then src_value s off base e 0 else 0 in
  let v1 = if n > 1 then src_value s off base e 1 else 0 in
  let last = if n > 1 then v1 else v0 in
  let finish ?(store_value = 0) s ~result ~loc =
    s.(e + f_flags) <- s.(e + f_flags) lor executed_bit;
    s.(e + f_result) <- result;
    s.(e + f_store_value) <- store_value;
    s.(e + f_loc) <- loc;
    retire m s tid;
    fetch m s tid;
    s
  in
  match ti.code.(pc) with
  | Instr.Nop -> finish (Array.copy s) ~result:0 ~loc:(-1)
  | Instr.Mov { src; _ } -> finish (Array.copy s) ~result:(operand src v0) ~loc:(-1)
  | Instr.Op { op; a; b; _ } ->
      let vb = operand b (match a with Instr.Imm _ -> v0 | Instr.Reg _ -> v1) in
      finish (Array.copy s) ~result:(Instr.eval_binop op (operand a v0) vb) ~loc:(-1)
  | Instr.Cbnz { offset; _ } | Instr.Cbz { offset; _ } ->
      let taken = match ti.code.(pc) with Instr.Cbnz _ -> v0 <> 0 | _ -> v0 = 0 in
      let s = Array.copy s in
      if taken then s.(off) <- pc + 1 + offset;
      finish s ~result:0 ~loc:(-1)
  | Instr.Barrier b ->
      (match emit with Some f -> f ~tid ~eid (Wmm_cert.Trace.Fence b) | None -> ());
      (* A marker with nothing before it orders nothing (and would
         wedge full barriers waiting on an empty buffer). *)
      let s =
        if ti.cls.(pc) land c_marker <> 0 && s.(buffer_off m s tid) > 0 then
          buffer_append s (buffer_off m s tid) k_marker ~loc:0 ~value:0 ~eid:0
        else Array.copy s
      in
      finish s ~result:0 ~loc:(-1)
  | Instr.Store { src; addr; order } ->
      let v = operand src v0 and loc = operand addr last in
      (match emit with
      | Some f -> f ~tid ~eid (Wmm_cert.Trace.Write { loc; value = v; order; rmw = false })
      | None -> ());
      let s =
        if m.config.synchronous_stores then begin
          let s = write_memory m (Array.copy s) loc v in
          revoke_monitors m s tid loc;
          s
        end
        else
          let kind = if order = Instr.Release then k_release else k_store in
          buffer_append s (buffer_off m s tid) kind ~loc ~value:v ~eid
      in
      finish ~store_value:v s ~result:v ~loc
  | Instr.Load { addr; order; _ } | Instr.Load_exclusive { addr; order; _ } ->
      let loc = operand addr v0 in
      let v =
        match forwardable_value ti s off base w (buffer_off m s tid) eid loc with
        | Some v -> v
        | None -> read_memory m s loc
      in
      (match emit with
      | Some f -> f ~tid ~eid (Wmm_cert.Trace.Read { loc; value = v; order })
      | None -> ());
      let s = Array.copy s in
      if ti.cls.(pc) land c_exclusive <> 0 then set_monitor m s tid loc;
      finish s ~result:v ~loc
  | Instr.Store_exclusive { src; addr; order; _ } ->
      let v = operand src v0 and loc = operand addr last in
      let p = m.mon_off + (2 * tid) in
      if s.(p) = 1 && s.(p + 1) = loc then begin
        (* Success: the exclusive write commits through the coherence
           layer immediately, revoking competing monitors. *)
        (match emit with
        | Some f -> f ~tid ~eid (Wmm_cert.Trace.Write { loc; value = v; order; rmw = true })
        | None -> ());
        let s = write_memory m (Array.copy s) loc v in
        clear_monitor m s tid;
        revoke_monitors m s tid loc;
        finish ~store_value:v s ~result:0 ~loc
      end
      else begin
        let s = Array.copy s in
        clear_monitor m s tid;
        finish s ~result:1 ~loc:(-1)
      end

let drain m s tid idx =
  let b = buffer_off m s tid in
  let n = s.(b) in
  let p = b + 1 + (idx * buffer_stride) in
  let loc = s.(p + 1) and value = s.(p + 2) in
  (* Markers left at the head order nothing anymore. *)
  let removed = ref 1 in
  if idx = 0 then
    while !removed < n && s.(p + (!removed * buffer_stride)) = k_marker do
      incr removed
    done;
  let s = splice s p (!removed * buffer_stride) 0 in
  s.(b) <- n - !removed;
  let s = write_memory m s loc value in
  revoke_monitors m s tid loc;
  s

let apply ?emit m s a =
  let tid = (a lsr 1) land 0xfffff and i = a lsr 21 in
  if a land 1 = 0 then execute ?emit m s tid i else drain m s tid i

(* ------------------------------------------------------------------ *)
(* Set-up, final states, keys.                                         *)
(* ------------------------------------------------------------------ *)

let machine config (program : Program.t) =
  let nt = Array.length program.Program.threads in
  let regs = Array.map output_regs program.Program.threads in
  let key_off = Array.fold_left (fun acc r -> acc + Array.length r) nt regs in
  let off = ref key_off and written_off = ref nt in
  let threads =
    Array.mapi
      (fun tid code ->
        let ti, next =
          thread_info config ~off:!off ~written_off:!written_off ~regs:regs.(tid) code
        in
        off := next;
        written_off := !written_off + Array.length ti.regs;
        ti)
      program.Program.threads
  in
  let locs = Array.of_list (Program.locations program) in
  let table = Array.fold_left (fun acc l -> if l < 1024 then max acc (l + 1) else acc) 0 locs in
  let loc_slots = Array.make table (-1) in
  Array.iteri (fun i l -> if l >= 0 && l < table then loc_slots.(l) <- i) locs;
  let mem_off = !off in
  let mon_off = mem_off + Array.length locs in
  let tail_off = mon_off + (2 * nt) in
  let m =
    {
      config;
      threads;
      locs;
      loc_slots;
      mem_off;
      mon_off;
      tail_off;
      init = Array.make (tail_off + 1 + nt) 0;
      scratch = Array.make 16 0;
      key = Bytes.create 256;
    }
  in
  Array.iteri (fun i l -> m.init.(mem_off + i) <- Program.initial_value program l) locs;
  for tid = 0 to nt - 1 do
    fetch m m.init tid
  done;
  m

let prepare config program =
  (match Program.validate program with Ok () -> () | Error msg -> invalid_arg msg);
  machine config program

(* Every window and buffer is empty: the tail holds only the extra
   memory cells and one zero length per buffer. *)
let finished m s =
  Array.for_all (fun ti -> s.(ti.off + 1) = 0) m.threads
  && Array.length s = m.tail_off + 1 + (2 * s.(m.tail_off)) + Array.length m.threads

let outcome_of_state m s =
  let registers = ref [] in
  Array.iteri
    (fun tid ti ->
      Array.iteri
        (fun slot r ->
          if s.(ti.written_off + slot) = 1 then begin
            let b = ti.regs_off + (2 * slot) in
            let v = if s.(b) = b_value then s.(b + 1) else 0 in
            registers := ((tid, r), v) :: !registers
          end)
        ti.regs)
    m.threads;
  {
    registers = List.sort compare !registers;
    memory = Array.to_list (Array.map (fun l -> (l, read_memory m s l)) m.locs);
  }

(* Zigzag varint: one byte for -64..63. *)
let rec put_varint k p z =
  if z lsr 7 = 0 then begin
    Bytes.unsafe_set k p (Char.unsafe_chr z);
    p + 1
  end
  else begin
    Bytes.unsafe_set k p (Char.unsafe_chr (z land 127 lor 128));
    put_varint k (p + 1) (z lsr 7)
  end

let[@inline] put k p v =
  let z = (v lsl 1) lxor (v asr 62) in
  if z land lnot 127 = 0 then begin
    Bytes.unsafe_set k p (Char.unsafe_chr z);
    p + 1
  end
  else put_varint k p z

(* Writes the key of [s] to [m.key] and returns its length.  It holds
   the key region plus each thread's window base eid, and leaves out
   the bookkeeping ints, window slots past the window's length, and
   every field that is constant or determined by the fields it holds:
   an entry's operands beyond its instruction's inputs; its result,
   stored value and location before it executes; a stored value except
   for stores and a location except for memory accesses (0 and -1
   otherwise); the pc of an entry of a thread without branches (its
   eid); the value of an absent binding or monitor and the fields of
   a buffer marker (0).  So two states share a key exactly when they
   agree on every pc, window entry (eid, pc, operands, executed,
   result, stored value, location), register binding, buffer, memory
   cell and monitor. *)
let encode m s =
  let need = 9 * Array.length s in
  if Bytes.length m.key < need then m.key <- Bytes.create need;
  let k = m.key in
  let p = ref 0 in
  for tid = 0 to Array.length m.threads - 1 do
    let ti = m.threads.(tid) in
    let off = ti.off in
    let w = s.(off + 1) in
    p := put k !p (s.(off));
    p := put k !p w;
    if w > 0 then p := put k !p (s.(tid) - w);
    for i = 0 to w - 1 do
      let e = entry off i in
      let pc = s.(e) and flags = s.(e + f_flags) in
      if ti.branches then p := put k !p pc;
      p := put k !p flags;
      if flags land executed_bit <> 0 then begin
        p := put k !p (s.(e + f_result));
        let c = ti.cls.(pc) in
        if c land c_store <> 0 then p := put k !p (s.(e + f_store_value));
        if c land (c_load lor c_store) <> 0 then p := put k !p (s.(e + f_loc))
      end;
      for src = 0 to ti.nsrc.(pc) - 1 do
        p := put k !p (s.(e + f_src + src))
      done
    done;
    for slot = 0 to Array.length ti.regs - 1 do
      let b = ti.regs_off + (2 * slot) in
      p := put k !p (s.(b));
      if s.(b) <> b_absent then p := put k !p (s.(b + 1))
    done
  done;
  for i = m.mem_off to m.mon_off - 1 do
    p := put k !p (s.(i))
  done;
  for i = 0 to Array.length m.threads - 1 do
    let b = m.mon_off + (2 * i) in
    p := put k !p (s.(b));
    if s.(b) <> 0 then p := put k !p (s.(b + 1))
  done;
  let extras = s.(m.tail_off) in
  for i = m.tail_off to m.tail_off + (2 * extras) do
    p := put k !p (s.(i))
  done;
  let b = ref (m.tail_off + 1 + (2 * extras)) in
  for _ = 1 to Array.length m.threads do
    let len = s.(!b) in
    p := put k !p len;
    for i = 0 to len - 1 do
      let e = !b + 1 + (i * buffer_stride) in
      p := put k !p (s.(e));
      if s.(e) <> k_marker then begin
        p := put k !p (s.(e + 1));
        p := put k !p (s.(e + 2));
        p := put k !p (s.(e + 3))
      end
    done;
    b := !b + 1 + (len * buffer_stride)
  done;
  !p

(* The seen set: open addressing over keys stored back to back in one
   byte arena, each after its varint length.  A slot holds 31 bits of
   the key's hash above its arena offset plus one: probes compare
   those bits before reading the arena, and growing re-slots without
   re-hashing.  A lookup reads the probed key in place; only a new key
   is copied. *)
module Seen = struct
  type t = {
    mutable slots : int array;
    mutable arena : Bytes.t;
    mutable used : int;  (** Arena bytes in use. *)
    mutable count : int;  (** Keys stored. *)
  }

  let create () = { slots = Array.make 256 0; arena = Bytes.create 1024; used = 0; count = 0 }

  let offset_bits = 32
  let offset_mask = (1 lsl offset_bits) - 1

  (* FNV-1a over 8-byte words and the trailing bytes, then a final mix
     so that the 31 bits kept depend on every byte. *)
  let hash b len =
    let h = ref 0x3c6ef372fe94f82b in
    let words = len / 8 in
    for i = 0 to words - 1 do
      h := (!h lxor Int64.to_int (Bytes.get_int64_le b (8 * i))) * 0x100000001b3
    done;
    for i = 8 * words to len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
    done;
    let h = !h lxor (!h lsr 29) in
    let h = h * 0x3f4a7c15 in
    (h lxor (h lsr 32)) land 0x7fffffff

  let rec key_start a p = if Char.code (Bytes.get a p) < 128 then p + 1 else key_start a (p + 1)

  let rec key_length a p shift acc =
    let c = Char.code (Bytes.get a p) in
    let acc = acc lor ((c land 127) lsl shift) in
    if c < 128 then acc else key_length a (p + 1) (shift + 7) acc

  let rec same_bytes a start b i len =
    i = len
    || (Bytes.unsafe_get a (start + i) = Bytes.unsafe_get b i && same_bytes a start b (i + 1) len)

  let rec same_words a start b i len =
    if i + 8 > len then same_bytes a start b i len
    else
      (Bytes.get_int64_le a (start + i) : int64) = Bytes.get_int64_le b i
      && same_words a start b (i + 8) len

  (* Whether the key at arena offset [off] is the first [len] bytes of [b]. *)
  let equal a off b len = key_length a off 0 0 = len && same_words a (key_start a off) b 0 len

  let rec place slots v i =
    if slots.(i) = 0 then slots.(i) <- v else place slots v ((i + 1) land (Array.length slots - 1))

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    Array.iter (fun v -> if v <> 0 then place slots v ((v lsr offset_bits) land mask)) t.slots;
    t.slots <- slots

  let append t b len =
    let need = t.used + 10 + len in
    if need > offset_mask then failwith "Relaxed.enumerate: seen set full";
    if need > Bytes.length t.arena then begin
      let arena = Bytes.create (max need (2 * Bytes.length t.arena)) in
      Bytes.blit t.arena 0 arena 0 t.used;
      t.arena <- arena
    end;
    let off = t.used in
    let start = put_varint t.arena off len in
    Bytes.blit b 0 t.arena start len;
    t.used <- start + len;
    off

  (* Adds the first [len] bytes of [b]; false if they were present. *)
  let add t b len =
    if 2 * (t.count + 1) > Array.length t.slots then grow t;
    let h = hash b len in
    let mask = Array.length t.slots - 1 in
    let rec probe i =
      let v = t.slots.(i) in
      if v = 0 then begin
        t.slots.(i) <- (h lsl offset_bits) lor (append t b len + 1);
        t.count <- t.count + 1;
        true
      end
      else if v lsr offset_bits = h && equal t.arena ((v land offset_mask) - 1) b len then false
      else probe ((i + 1) land mask)
    in
    probe (h land mask)
end

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let run_machine ?emit m ~seed =
  let rng = Rng.create seed in
  let rec go s steps =
    if steps > 100_000 then failwith "Relaxed.run: step limit exceeded";
    let actions = enabled_actions m s in
    if Array.length actions = 0 then
      if finished m s then outcome_of_state m s else failwith "Relaxed.run: machine deadlocked"
    else go (apply ?emit m s (Rng.choose rng actions)) (steps + 1)
  in
  go m.init 0

let run config ~seed program = run_machine (prepare config program) ~seed

let run_traced config ~seed (program : Program.t) =
  let traces = Array.map (fun _ -> ref []) program.Program.threads in
  let emit ~tid ~eid action = traces.(tid) := (eid, action) :: !(traces.(tid)) in
  let outcome = run_machine ~emit (prepare config program) ~seed in
  let per_thread =
    Array.map
      (fun entries ->
        List.sort (fun (a, _) (b, _) -> compare a b) !entries |> List.map snd)
      traces
  in
  (outcome, per_thread)

let collect config ~seed ~iterations program =
  let m = lazy (prepare config program) in
  let table = Hashtbl.create 64 in
  for i = 0 to iterations - 1 do
    if i land 63 = 0 then Cancel.check_ambient ();
    let o = run_machine (Lazy.force m) ~seed:(seed + (i * 7919)) in
    let current = try Hashtbl.find table o with Not_found -> 0 in
    Hashtbl.replace table o (current + 1)
  done;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare_outcome a b)

let enumerate ?(max_states = 500_000) config (program : Program.t) =
  let m = prepare config program in
  let seen = Seen.create () in
  let outcomes = Hashtbl.create 64 in
  let visited = ref 0 in
  let rec explore s =
    let len = encode m s in
    if Seen.add seen m.key len then begin
      incr visited;
      if !visited land 1023 = 0 then Cancel.check_ambient ();
      if !visited > max_states then failwith "Relaxed.enumerate: state limit exceeded";
      let actions = enabled_actions m s in
      if Array.length actions = 0 then
        if finished m s then Hashtbl.replace outcomes (outcome_of_state m s) ()
        else failwith "Relaxed.enumerate: machine deadlocked"
      else Array.iter (fun a -> explore (apply m s a)) actions
    end
  in
  explore m.init;
  Hashtbl.fold (fun o () acc -> o :: acc) outcomes [] |> List.sort compare_outcome
