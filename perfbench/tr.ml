(* Measurement plumbing shared by the workloads: a monotonic clock,
   in-memory spans and counters, order statistics, result checksums,
   /proc readers and a minimal JSON writer. *)

open Relalg

(* Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* One timed call into a layer. [parent] is the enclosing span's id (0 at
   the root); every span of one statement shares [req]. Spans are kept
   in memory and only written out when the run ends. *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_req : int;
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
}

let spans : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let mu = Mutex.create ()
let next_id = Atomic.make 1
let next_req = Atomic.make 1
let fresh_req () = Atomic.fetch_and_add next_req 1

(* [span ~req ~parent name f] runs [f id] and records its interval; the
   span id is passed so children can name their parent. A raising call
   records nothing: failed statements are counted, not timed. *)
let span ?(parent = 0) ~req name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  let s =
    { sp_id = id; sp_parent = parent; sp_req = req; sp_name = name; sp_t0 = t0; sp_t1 = t1 }
  in
  Mutex.protect mu (fun () -> spans := s :: !spans);
  r

let count name v =
  Mutex.protect mu (fun () ->
      let old = Option.value ~default:0. (Hashtbl.find_opt counters name) in
      Hashtbl.replace counters name (old +. v))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* Durations in ms of every span called [name]. *)
let durations name =
  List.filter_map
    (fun s -> if s.sp_name = name then Some ((s.sp_t1 -. s.sp_t0) *. 1000.) else None)
    !spans

let total_ms name = List.fold_left ( +. ) 0. (durations name)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no NaN or infinity; a metric that cannot be computed is a
   defect of the benchmark, so fail loudly instead of printing one. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "non-finite metric value %f" x)

(* Write the trace as JSON lines: one per span (times relative to the
   first span, in ms), then one per counter. *)
let write_trace path =
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.sp_t0 | [] -> 0. in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%s,\"start_ms\":%s,\"end_ms\":%s}\n"
            s.sp_id s.sp_parent s.sp_req (json_string s.sp_name)
            (json_float ((s.sp_t0 -. origin) *. 1000.))
            (json_float ((s.sp_t1 -. origin) *. 1000.)))
        all;
      Hashtbl.iter
        (fun k v ->
          Printf.fprintf oc "{\"counter\":%s,\"value\":%s}\n" (json_string k) (json_float v))
        counters)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolated quantile, [p] in [0, 1]. *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile of no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Result checksums                                                    *)
(* ------------------------------------------------------------------ *)

let row_hash ?(width = max_int) (t : Tuple.t) =
  let vs = (t :> Value.t array) in
  let h = ref 17 in
  for i = 0 to min width (Array.length vs) - 1 do
    h := (!h * 31) + Hashtbl.hash vs.(i)
  done;
  !h

(* Order-insensitive bag checksum: forces the rows, so a lazily
   materialized result pays its transposition inside the timed region. *)
let checksum rel =
  List.fold_left (fun acc t -> acc + row_hash t) (Relation.cardinality rel) (Relation.tuples rel)

(* Set checksum of the first [width] columns: the original result a
   provenance query extends, which every strategy must agree on. *)
let prefix_set_checksum ~width rel =
  List.map (row_hash ~width) (Relation.tuples rel)
  |> List.sort_uniq compare
  |> List.fold_left (fun acc h -> (acc * 1_000_003) + h) 0

(* ------------------------------------------------------------------ *)
(* Process accounting                                                  *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Peak resident set of [pid] ("self" for this process), in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds of [pid], from /proc/PID/stat (fields 14
   and 15, in clock ticks of 1/100 s on Linux). *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after_comm = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after_comm) in
  (* fields.(0) is field 3 (state), so field n is fields.(n - 3) *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* Host-wide CPU ticks (all, steal) from /proc/stat: time the
   hypervisor gave to other tenants while this machine's CPUs wanted to
   run. Printed with every run, since it explains most run-to-run
   swings on a shared machine. *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let fields =
    List.filter_map int_of_string_opt (List.filter (( <> ) "") (String.split_on_char ' ' line))
  in
  (List.fold_left ( + ) 0 fields, List.nth fields 7)

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Run report                                                          *)
(* ------------------------------------------------------------------ *)

type report = {
  attempted : int;  (** statements sent in the measured phases *)
  failed : int;  (** errors + shed + wrong answers among them *)
  wrong : int;  (** answers that disagreed with the check *)
  metrics : (string * float) list;
  env : (string * string) list;  (** run environment, printed with the results *)
}

(* ------------------------------------------------------------------ *)
(* Loop metrics                                                        *)
(* ------------------------------------------------------------------ *)

(* The measured closed loop is cut into [slices] slices. Throughput and
   the median latency are the median over the slices of the figure
   within one slice, so a stretch of machine noise has to cover most of
   the run, not one part of it, before it moves them. A 99th percentile
   is only reported from at least [min_p99_samples] samples, so that at
   least ten lie beyond it: with [~per_slice] it is the median over the
   slices of each slice's own, which needs that many in every slice;
   otherwise it pools every slice's samples. A run with too few samples
   leaves the metric out, which fails the run. *)
let slices = 5
let min_p99_samples = 1000

let p99 ~per_slice name sl =
  let enough xs = List.length xs >= min_p99_samples in
  if per_slice then
    if List.for_all enough sl then [ (name, median (List.map (quantile 0.99) sl)) ] else []
  else
    let xs = List.concat sl in
    if enough xs then [ (name, quantile 0.99 xs) ] else []

(* Closed-loop metrics of slices given as (latencies in ms, wall time of
   the slice in s). *)
let closed_metrics ~p99_per_slice sl =
  [
    ("throughput_qps", median (List.map (fun (ms, s) -> float_of_int (List.length ms) /. s) sl));
    ("latency_p50_ms", median (List.map (fun (ms, _) -> median ms) sl));
  ]
  @ p99 ~per_slice:p99_per_slice "latency_p99_ms" (List.map fst sl)

(* Open-loop metrics: latencies in ms, each from its request's due
   time, and the generator's wake-up lateness. *)
let open_metrics ms ~late =
  [
    ("open_p50_ms", median ms);
    ("driver.late_ms", match late with [] -> 0. | l -> quantile 0.99 l);
  ]
  @ p99 ~per_slice:false "open_p99_ms" [ ms ]
