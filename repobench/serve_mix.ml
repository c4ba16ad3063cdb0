(* Workload serve-mix: a closed loop over one connection against a
   fresh `wmm_bench serve --jobs 1` per pass (an emptied cache
   directory and a fresh run id), sending seeded `litmus` requests that carry synth program
   text: one program drawn from each of 60 equal-cost classes, each
   sent three times.  Its first send is fresh (compute, store to the
   cache, append to the journal: the writes); the two repeats are
   answered from the journal or cache (the reads).  Op j is the j-th
   request of the pass; every pass sends the same sequence. *)

open Wmm_litmus
module Json = Wmm_served.Json
module Client = Wmm_served.Client
module Protocol = Wmm_served.Protocol

(* Each drawn program is sent this many times per pass: once fresh,
   then as repeats. *)
let sends = 3
let default_daemon = "_build/default/bin/wmm_bench.exe"
let dir = Filename.concat ".repobench" "serve"

type request = { line : string; fresh : bool; program : int }

type expected = { allowed : bool; observed : bool; observations : int; total : int; sound : bool }

let expected_of_item (item : Json.t) =
  let b k = Json.bool_member k item and i k = Json.int_member k item in
  match (b "axiomatic_allowed", b "observed", i "observations", i "total", b "sound") with
  | Some allowed, Some observed, Some observations, Some total, Some sound ->
      Some { allowed; observed; observations; total; sound }
  | _ -> None

(* Seeded draw: one member of each serve stratum, shuffled, and the
   in-process answer (Ops.compute, as the daemon computes it) for
   each.  Also checks every drawn program against its class
   signature. *)
let prepare ~seed () =
  let rng = Wmm_util.Rng.create (seed + 0x5e7e) in
  let population = Verdict_certify.synth_population () in
  let strata = Array.of_list (Verdict_certify.strata "serve") in
  Wmm_util.Rng.shuffle_in_place rng strata;
  let engine = Wmm_engine.Engine.sequential () in
  let mismatches = ref [] in
  let programs =
    Array.map
      (fun (s : Verdict_certify.stratum) ->
        let member = Wmm_util.Rng.choose rng (Array.of_list s.Verdict_certify.members) in
        let arch_name = List.hd (String.split_on_char '/' member) in
        let arch = List.find (fun a -> Wmm_isa.Arch.name a = arch_name) Wmm_isa.Arch.all in
        let text = Parse.to_text ~arch (Hashtbl.find population member) in
        let model = s.Verdict_certify.model in
        let parsed = match Parse.parse text with Ok p -> p.Parse.test | Error e -> failwith e in
        let _, _, states, signature =
          Strata.served_signature ?expect:(Strata.states_of s.Verdict_certify.signature) model ~text parsed
        in
        if signature <> s.Verdict_certify.signature then
          mismatches := Printf.sprintf "serve:%s drew %s: %s" s.Verdict_certify.id member signature :: !mismatches;
        let items =
          Wmm_served.Ops.compute ~engine
            (Protocol.Litmus
               { tests = []; program = Some text; model = Some model; mode = Protocol.Exhaustive; certify = false })
        in
        let expected =
          match items with
          | [ item ] -> ( match Option.bind (Result.to_option (Json.parse item)) expected_of_item with Some e -> e | None -> failwith "bad in-process item")
          | _ -> failwith "expected one in-process item"
        in
        (text, Protocol.model_wire_name model, expected, states))
      strata
  in
  (* The request sequence: every program is sent three times, at
     seeded positions; its first send is the fresh one. *)
  let slots = Array.init (sends * Array.length programs) (fun k -> k mod Array.length programs) in
  Wmm_util.Rng.shuffle_in_place rng slots;
  let seen = Hashtbl.create 128 in
  let requests = ref [] in
  Array.iteri
    (fun j program ->
      let fresh = not (Hashtbl.mem seen program) in
      Hashtbl.replace seen program ();
      let text, model, _, _ = programs.(program) in
      let line =
        Json.to_string
          (Json.Obj [ ("op", Json.Str "litmus"); ("id", Json.of_int j); ("program", Json.Str text); ("model", Json.Str model) ])
      in
      requests := { line; fresh; program } :: !requests)
    slots;
  ( Array.of_list (List.rev !requests),
    Array.map (fun (_, _, e, _) -> e) programs,
    Array.fold_left (fun n (_, _, _, states) -> n + states) 0 programs,
    List.rev !mismatches )

(* ------------------------------------------------------------------ *)
(* One pass against a fresh daemon                                     *)
(* ------------------------------------------------------------------ *)

type reply = { dt : float; ok : bool; served_from : string; server_us : float }

type pass = {
  setup_dt : float;
  replies : reply array;
  stats : (string * float) list;  (** stats and cache-stats counters *)
  rss_mb : float;
}

let daemon = ref None

let stop_daemon () =
  match !daemon with
  | None -> ()
  | Some pid ->
      daemon := None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)

let () = at_exit stop_daemon

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let final_frame frames =
  match List.rev frames with
  | last :: _ -> ( match Json.parse last with Ok j -> Some j | Error _ -> None)
  | [] -> None

let numbers (j : Json.t) =
  match j with
  | Json.Obj fields -> List.filter_map (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None) fields
  | _ -> []

(* The daemons' cache directory.  The cache shards its entries into
   256 subdirectories, which a long-lived daemon has all made; they are
   made once per run and kept, and every pass starts from a cache
   emptied of entries and journal.  Making and deleting whole
   directory trees every pass, untimed as it was, left the file system
   busy writing them back while later passes ran: their cache stores,
   and even their journal hits, slowed by a third over a few runs. *)
let cache = Filename.concat dir "cache"

let shard k = Filename.concat cache (Printf.sprintf "%02x" k)

let make_cache () =
  Unix.mkdir cache 0o755;
  for k = 0 to 255 do
    Unix.mkdir (shard k) 0o755
  done

(* Delete every entry and the journal, keeping the shard directories. *)
let empty_cache () =
  let shards = Hashtbl.create 256 in
  for k = 0 to 255 do
    Hashtbl.replace shards (Printf.sprintf "%02x" k) ()
  done;
  Array.iter
    (fun e ->
      let path = Filename.concat cache e in
      if Hashtbl.mem shards e then Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path)
      else rm_rf path)
    (Sys.readdir cache)

let run_pass ~exe ~seed ~pass (requests : request array) (expected : expected array) =
  let sock = Filename.concat dir (Printf.sprintf "p%d.sock" pass) in
  rm_rf sock;
  empty_cache ();
  let log = Unix.openfile (Filename.concat ".repobench" "serve-daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Measure.now () in
  let client =
    Trace.span "spawn" (fun () ->
        let pid =
          Unix.create_process exe
            [| exe; "serve"; "--socket"; sock; "--cache-dir"; cache; "--run-id";
               Printf.sprintf "mix-%d-%d" seed pass; "--jobs"; "1" |]
            null log log
        in
        daemon := Some pid;
        let rec connect attempts =
          match Client.connect ~socket_path:sock with
          | Ok c -> c
          | Error e ->
              if attempts > 20_000 then failwith ("daemon did not start: " ^ e);
              Unix.sleepf 0.0005;
              connect (attempts + 1)
        in
        let c = connect 0 in
        (match Client.roundtrip c "{\"op\": \"ping\"}" with
        | Ok _ -> ()
        | Error e -> failwith ("ping: " ^ e));
        c)
  in
  let setup_dt = Measure.now () -. t0 in
  Unix.close log;
  Unix.close null;
  let replies =
    Array.map
      (fun r ->
        let frames, dt =
          Measure.timed (fun () ->
              Trace.span ~args:[ ("fresh", string_of_bool r.fresh) ] "request" (fun () ->
                  Client.roundtrip client r.line))
        in
        match Result.to_option frames |> Option.map final_frame |> Option.join with
        | None -> { dt; ok = false; served_from = "none"; server_us = 0. }
        | Some j ->
            let served_from = Option.value ~default:"none" (Json.str_member "served_from" j) in
            let item = Option.bind (Json.member "item" j) expected_of_item in
            let ok =
              Json.str_member "status" j = Some "ok"
              && item = Some expected.(r.program)
              && expected.(r.program).sound
              && (if r.fresh then served_from = "computed" else served_from = "journal" || served_from = "cache")
            in
            let server_us = Option.value ~default:0. (Option.map float_of_int (Json.int_member "wall_us" j)) in
            { dt; ok; served_from; server_us })
      requests
  in
  let stats =
    Trace.span "stats" (fun () ->
        List.concat_map
          (fun (op, prefix) ->
            match Client.roundtrip client (Printf.sprintf "{\"op\": %S}" op) with
            | Ok frames -> List.map (fun (k, v) -> (prefix ^ k, v)) (Option.fold ~none:[] ~some:numbers (final_frame frames))
            | Error _ -> [])
          [ ("stats", "server."); ("cache-stats", "cache.") ])
  in
  let rss_mb = match !daemon with Some pid -> Measure.peak_rss_mb (Some pid) | None -> nan in
  Trace.span "shutdown" (fun () ->
      ignore (Client.roundtrip client "{\"op\": \"shutdown\"}");
      Client.close client;
      match !daemon with
      | Some pid ->
          daemon := None;
          ignore (Unix.waitpid [] pid)
      | None -> ());
  rm_rf sock;
  { setup_dt; replies; stats; rss_mb }

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ~record:_ ~seed ~seconds ~traced =
  let exe = Option.value ~default:default_daemon (Sys.getenv_opt "REPOBENCH_DAEMON") in
  if not (Sys.file_exists exe) then failwith ("daemon binary not built: " ^ exe);
  rm_rf dir;
  Unix.mkdir dir 0o755;
  make_cache ();
  (* The daemons of one run log here; a run starts a fresh log. *)
  Unix.close (Unix.openfile (Filename.concat ".repobench" "serve-daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644);
  let passes = Measure.rounds_for ~seconds ~per_second:2.8 in
  let t_start = Measure.now () in
  let requests, expected, _, mismatched =
    Trace.span ~top:true "prepare" (fun () -> Trace.in_child (prepare ~seed))
  in
  List.iter (fun m -> Measure.log "serve-mix: class mismatch %s" m) mismatched;
  let n = Array.length requests in
  let plain = Measure.bests n and traced_b = Measure.bests n in
  let at_best = Array.make n None in
  let failed = Array.make n false in
  let setups = ref [] and refs = ref [] and rss = ref [] and counters = ref [] in
  let raw_hit = ref [] and raw_compute = ref [] in
  for p = 0 to passes - 1 do
    let traced_pass = traced && p mod 2 = 0 in
    let res =
      Trace.top ~traced ~args:[ ("pass", string_of_int p) ] "pass" (fun () ->
          Trace.enabled := traced_pass;
          let r = run_pass ~exe ~seed ~pass:p requests expected in
          Trace.enabled := traced;
          r)
    in
    let ref_dt = Trace.span ~top:true "host.reference_loop" Measure.reference_loop in
    refs := ref_dt :: !refs;
    setups := res.setup_dt :: !setups;
    rss := res.rss_mb :: !rss;
    if traced_pass then counters := res.stats :: !counters;
    Array.iteri
      (fun j (r : reply) ->
        if not r.ok then failed.(j) <- true;
        let b = if traced_pass then traced_b.(j) else plain.(j) in
        let prev = b.Measure.fastest in
        Measure.record b ~round:p r.dt;
        if traced_pass && r.dt < prev then at_best.(j) <- Some r;
        if traced_pass then
          if requests.(j).fresh then raw_compute := r.dt :: !raw_compute else raw_hit := r.dt :: !raw_hit)
      res.replies
  done;
  let t_end = Measure.now () in
  rm_rf dir;
  let failed_n = Array.fold_left (fun k b -> if b then k + 1 else k) 0 failed in
  let fastest = Array.map (fun (b : Measure.best) -> b.Measure.fastest) plain in
  let cls fresh = Array.of_list (List.filter_map Fun.id (Array.to_list (Array.mapi (fun j r -> if r.fresh = fresh then Some (fastest.(j) *. 1000.) else None) requests))) in
  let pct p xs = match Measure.percentile p xs with Some v -> v | None -> nan in
  let e2e =
    [
      ("setup_s", Array.fold_left Float.min infinity (Array.of_list !setups));
      ("wall_s", Measure.sum fastest);
      ("peak_rss_mb", List.fold_left Float.max 0. !rss);
      ("light_ms_p50", pct 50. (cls false));
      ("light_ms_p90", pct 90. (cls false));
      ("heavy_ms_p50", pct 50. (cls true));
    ]
  in
  let layers =
    if not traced then []
    else begin
      let counter k = Measure.median (Array.of_list (List.map (fun c -> Option.value ~default:0. (List.assoc_opt k c)) !counters)) in
      let best = Array.mapi (fun j r -> (requests.(j).fresh, Option.get r)) at_best in
      let wait fresh =
        let xs = List.filter_map (fun (f, r) -> if f = fresh then Some ((r.dt *. 1000.) -. (r.server_us /. 1000.)) else None) (Array.to_list best) in
        Measure.sum (Array.of_list xs) /. float_of_int (max 1 (List.length xs))
      in
      let ms l = Array.of_list (List.map (fun x -> x *. 1000.) l) in
      let pct99 l = match Measure.percentile 99. (ms l) with Some v -> v | None -> nan in
      let hits = counter "server.journal_hits" +. counter "server.cache_hits" in
      let traced_wall = Measure.sum (Array.map (fun (b : Measure.best) -> b.Measure.fastest) traced_b) in
      [
        ("client.hit_ms_p99", pct99 !raw_hit);
        ("client.compute_ms_p99", pct99 !raw_compute);
        ("client.hit_wait_ms", wait false);
        ("client.compute_wait_ms", wait true);
        ("server.requests", counter "server.requests");
        ("server.computed", counter "server.computed");
        ("server.journal_hits", counter "server.journal_hits");
        ("server.cache_hits", counter "server.cache_hits");
        ("server.dedup_joined", counter "server.dedup_joined");
        ("server.overloaded", counter "server.overloaded");
        ("server.hit_wall_mean_us", counter "server.hit_wall_total_us" /. Float.max 1. hits);
        ("server.compute_wall_mean_ms", counter "server.compute_wall_total_us" /. 1000. /. Float.max 1. (counter "server.computed"));
        ("server.max_pending", counter "server.max_pending");
        ("cache.stores", counter "cache.stores");
        ("cache.misses", counter "cache.misses");
        ("trace.overhead_s", traced_wall -. Measure.sum fastest);
      ]
    end
  in
  Array.iteri (fun j f -> if f then Measure.log "serve-mix: failed request %d (%s)" j (if requests.(j).fresh then "fresh" else "repeat")) failed;
  Measure.log "serve-mix: %d passes x %d requests, %d failed, %d class mismatches" passes n failed_n (List.length mismatched);
  (mismatched = [], n, failed_n, e2e, layers, Array.of_list !refs, (t_start, t_end))
