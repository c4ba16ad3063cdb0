(* Recorded tables of every deterministic output, one "key|fields"
   line per entry, under repobench/data.  Each run compares what it
   computed against them; `repobench record <workload>` rewrites a
   table after a change meant to alter those outputs. *)

let dir = Filename.concat "repobench" "data"

let path name = Filename.concat dir (name ^ ".txt")

let read name =
  match In_channel.with_open_text (path name) In_channel.input_all with
  | exception Sys_error msg -> failwith ("missing recorded table: " ^ msg)
  | text ->
      List.filter
        (fun l -> l <> "" && l.[0] <> '#')
        (String.split_on_char '\n' text)

let write name ~header lines =
  Out_channel.with_open_text (path name) (fun oc ->
      List.iter (fun h -> output_string oc ("# " ^ h ^ "\n")) header;
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Measure.log "recorded %d lines to %s" (List.length lines) (path name)

let key_of line = match String.index_opt line '|' with Some i -> String.sub line 0 i | None -> line

(* Index a table by key. *)
let index lines =
  let tbl = Hashtbl.create (List.length lines) in
  List.iter (fun l -> Hashtbl.replace tbl (key_of l) l) lines;
  tbl

(* Lines of [computed] that differ from (or are absent in) [recorded];
   the first few are logged. *)
let mismatches ~table recorded computed =
  let tbl = index recorded in
  let bad =
    List.filter
      (fun l -> match Hashtbl.find_opt tbl (key_of l) with Some r -> r <> l | None -> true)
      computed
  in
  List.iteri
    (fun i l ->
      if i < 5 then
        Measure.log "%s mismatch: got %s, recorded %s" table l
          (Option.value ~default:"nothing" (Hashtbl.find_opt tbl (key_of l))))
    bad;
  bad

let hex f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
