(* Spans recorded around the benchmark's own calls into the layers,
   kept in memory and written as Chrome trace JSON (open it at
   ui.perfetto.dev).  Recording is off unless the run is traced. *)

type span = {
  name : string;
  start : float;
  stop : float;
  top : bool;  (** A top-level phase: these add up to the traced wall. *)
  args : (string * string) list;
}

let enabled = ref false

let spans : span list ref = ref []

let span ?(args = []) ?(top = false) name f =
  if not !enabled then f ()
  else begin
    let start = Measure.now () in
    let v = f () in
    spans := { name; start; stop = Measure.now (); top; args } :: !spans;
    v
  end

(* Share of the traced wall [t0, t1] covered by top-level spans. *)
let coverage spans ~t0 ~t1 =
  let covered =
    List.fold_left (fun acc s -> if s.top then acc +. (s.stop -. s.start) else acc) 0. spans
  in
  covered /. (t1 -. t0)

(* [Measure.in_child] for code that records spans: the child starts
   with none, so it returns only its own. *)
let in_child f = Measure.in_child (fun () -> spans := []; f ())

(* A top-level span, recorded whenever [traced] even if [f] switches
   recording off for its own spans. *)
let top ~traced ?(args = []) name f =
  let t0 = Measure.now () in
  let v = f () in
  if traced then spans := { name; start = t0; stop = Measure.now (); top = true; args } :: !spans;
  v

let take () =
  let s = List.rev !spans in
  spans := [];
  s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("X") events in microseconds from the first span; nesting
   follows from time containment on the one thread track. *)
let write_chrome path spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          let args =
            String.concat ", "
              (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) s.args)
          in
          Printf.fprintf oc
            "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
            (if i = 0 then "" else ",\n")
            (json_string s.name)
            ((s.start -. origin) *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            args)
        spans;
      output_string oc "\n]}\n")
