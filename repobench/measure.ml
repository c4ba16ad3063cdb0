(* Estimator and host plumbing shared by every workload.

   Every timing the benchmark reports is an op's fastest repeat over
   many rounds spread across the run: on a shared host whose speed
   swings by 2x over seconds, the minimum of many short repeats is
   stable where a pass-level sum is not.  The op set and the number of
   rounds are fixed before any op runs; elapsed time never decides how
   much work is done. *)

(* Seconds on the monotonic clock, at nanosecond resolution; the same
   clock in every process, so a child's spans line up with its
   parent's. *)
let clock = ref (fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9)

let now () = !clock ()

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Fastest of rounds                                                   *)
(* ------------------------------------------------------------------ *)

type best = { mutable fastest : float; mutable repeats : int; mutable at_round : int }

let bests n = Array.init n (fun _ -> { fastest = infinity; repeats = 0; at_round = -1 })

let record b ~round dt =
  b.repeats <- b.repeats + 1;
  if dt < b.fastest then begin
    b.fastest <- dt;
    b.at_round <- round
  end

(* [rounds_for ~seconds ~per_second] is the fixed round count of a run
   of [seconds]: a pure function of the command line. *)
let rounds_for ~seconds ~per_second = max 3 (int_of_float (Float.round (float_of_int seconds *. per_second)))

(* Whether round [r] of [rounds] runs an op repeated [repeats] times in
   a run: the repeats are spread evenly over the rounds. *)
let runs_in_round ~rounds ~repeats ~offset r =
  let r = (r + offset) mod rounds in
  repeats >= rounds || (r * repeats / rounds) <> ((r + 1) * repeats / rounds)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile over the ops of one class, reported only
   when at least [min_beyond] ops lie beyond it: p50 needs 20 ops, p90
   needs 100, p99 needs 1000. *)
let min_beyond = 10

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - rank < min_beyond then None else Some sorted.(rank - 1)
  end

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

let sum xs = Array.fold_left ( +. ) 0. xs

(* ------------------------------------------------------------------ *)
(* Host                                                                *)
(* ------------------------------------------------------------------ *)

(* A fixed integer loop timed once per round.  Its fastest and median
   times tell a slow host from a slow program; nothing is normalised
   by it. *)
let reference_loop () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 4_000_000 do
    acc := (!acc * 31) + (i land 1023)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' text)

(* Run [f] in a forked child and return its marshalled result.  Every
   timed round runs in a fresh child of a parent that never ran the
   workload, so process-global memo tables warmed by one round cannot
   make a later round cheaper. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        match (Marshal.from_channel ic : ('a, string) result) with
        | v -> v
        | exception End_of_file -> Error "child exited without a result"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok v -> v | Error msg -> failwith msg)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("repobench: " ^ s)) fmt
