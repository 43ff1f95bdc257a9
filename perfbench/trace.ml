(* In-memory spans for the traced run.

   The benchmark wraps each call it makes into a layer's public
   functions in [span]; a span records its name, wall-clock start and
   end, and the bytes allocated while it was open.  Spans stay in
   memory and are written out once, when the run ends.  With tracing
   off, [span] is a plain call. *)

type span = { name : string; t0 : float; t1 : float; alloc_bytes : float }

let enabled = ref false
let spans : span list ref = ref []

(* [span_named name_of f] runs [f] inside a span whose name is decided
   from [f]'s result (a prepare is a hit or a miss only once it
   returns). *)
let span_named (name_of : 'a -> string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let finish name =
      let t1 = Unix.gettimeofday () in
      let alloc_bytes = Gc.allocated_bytes () -. a0 in
      spans := { name; t0; t1; alloc_bytes } :: !spans
    in
    match f () with
    | v ->
        finish (name_of v);
        v
    | exception e ->
        finish "error";
        raise e
  end

let span name f = span_named (fun _ -> name) f

type summary = { count : int; total_s : float; total_alloc : float }

let summarize (name : string) : summary =
  List.fold_left
    (fun acc s ->
      if s.name = name then
        { count = acc.count + 1;
          total_s = acc.total_s +. (s.t1 -. s.t0);
          total_alloc = acc.total_alloc +. s.alloc_bytes;
        }
      else acc)
    { count = 0; total_s = 0.0; total_alloc = 0.0 }
    !spans

(* mean milliseconds per span of [name]; 0 when the layer was not
   entered *)
let mean_ms name =
  let s = summarize name in
  if s.count = 0 then 0.0 else s.total_s *. 1e3 /. float_of_int s.count

(* mean megabytes allocated per span of [name] *)
let mean_alloc_mb name =
  let s = summarize name in
  if s.count = 0 then 0.0 else s.total_alloc /. 1e6 /. float_of_int s.count

(* One JSON object per line, oldest first. *)
let write (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"name\":%S,\"t0\":%.6f,\"t1\":%.6f,\"alloc_bytes\":%.0f}\n" s.name
        s.t0 s.t1 s.alloc_bytes)
    (List.rev !spans);
  close_out oc
