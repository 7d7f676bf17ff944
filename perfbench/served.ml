(* The served workload, serve-ddl: one driver process with one systhread
   per connection, against the built permserver executable in a process
   of its own. Every response is compared with an answer computed in
   this process for the same SQL and session strategy before the run,
   outside the timed region. *)

open Relalg
open Core
module P = Provserver.Protocol
module C = Provserver.Client

let host = "127.0.0.1"

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; output : Buffer.t; reader : Thread.t }

let live : int list ref = ref []

(* Stop a server: SIGTERM starts its graceful drain; wait for it to
   exit, escalating to SIGKILL if the drain overruns. *)
let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Tr.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Tr.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter stop_pid !live)

(* The server runs with OCAMLRUNPARAM=v=0x400, so its runtime prints its
   GC totals when it exits; a thread keeps its output drained. *)
let start ~exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [| exe; "--tpch"; Printf.sprintf "%g" Mix.serve_sf; "--host"; host; "--port"; "0"; "--drain-deadline"; "2" |]
  in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid = Unix.create_process_env exe argv env Unix.stdin w w in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec await () =
    match In_channel.input_line out with
    | None -> failwith "permserver exited before listening"
    | Some l -> (
        match Scanf.sscanf_opt l "permserver listening on %_[^:]:%d" Fun.id with
        | Some port -> port
        | None -> await ())
  in
  let port = await () in
  let output = Buffer.create 1024 in
  let reader =
    Thread.create
      (fun () ->
        let rec go () =
          match In_channel.input_line out with
          | Some l ->
              Buffer.add_string output l;
              Buffer.add_char output '\n';
              go ()
          | None -> close_in_noerr out
        in
        go ())
      ()
  in
  { pid; port; output; reader }

(* Stop the server and return what it printed after start-up. *)
let stop sv =
  stop_pid sv.pid;
  Thread.join sv.reader;
  Buffer.contents sv.output

let major_collections output =
  List.find_map
    (fun l -> Scanf.sscanf_opt l "major_collections: %d" Fun.id)
    (String.split_on_char '\n' output)

(* ------------------------------------------------------------------ *)
(* Statements and their expected answers                               *)
(* ------------------------------------------------------------------ *)

type kind = Query | Create_table | Create_view | Query_after_ddl | Drop | Swap

let kind_name = function
  | Query -> "query"
  | Create_table -> "create_table"
  | Create_view -> "create_view"
  | Query_after_ddl -> "first_query_after_ddl"
  | Drop -> "drop"
  | Swap -> "swap"

type expect = Exact of P.response | Prefix of string

type stmt = {
  id : int;  (** position in the connection's mix; per-statement medians key on it *)
  kind : kind;
  req : P.request;
  expect : expect;
  strategy : Strategy.t;  (** the session's strategy *)
  answered_by : Strategy.t;  (** the strategy the fallback ladder settled on *)
}

(* The server's rendering of an executed statement (server.ml's
   render_result and DDL acknowledgements), recomputed here. *)
let response_of = function
  | Perm.Rows r ->
      let rel = r.Perm.relation in
      let ladder =
        match r.Perm.ladder with
        | Some l when l.Resilience.lad_abandoned <> [] -> Some (Resilience.ladder_to_string l)
        | _ -> None
      in
      P.Result { r_cols = Schema.names (Relation.schema rel); r_rows = Inproc.render rel; r_ladder = ladder }
  | Perm.Created_view n -> P.Ok_msg ("created view " ^ n)
  | Perm.Created_table (n, k) -> P.Ok_msg (Printf.sprintf "created table %s (%d rows)" n k)
  | Perm.Dropped n -> P.Ok_msg ("dropped " ^ n)

let answered_by strategy = function
  | Perm.Rows { Perm.ladder = Some l; _ } -> l.Resilience.lad_strategy
  | _ -> strategy

let local_exec db strategy sql = Perm.exec db ~strategy ~fallback:true sql

let expected db strategy id kind sql =
  let res = local_exec db strategy sql in
  {
    id;
    kind;
    req = P.Query sql;
    expect = Exact (response_of res);
    strategy;
    answered_by = answered_by strategy res;
  }

let sort_rows = function
  | P.Result r -> P.Result { r with r_rows = List.sort compare r.r_rows }
  | resp -> resp

let matches expect resp =
  match (expect, resp) with
  | Exact e, r -> sort_rows e = sort_rows r
  | Prefix p, P.Ok_msg m -> String.starts_with ~prefix:p m
  | Prefix _, _ -> false

let swap_stmt strategy =
  {
    id = -1;
    kind = Swap;
    req = P.Load_snapshot "tpch";
    expect = Prefix "snapshot tpch at epoch ";
    strategy;
    answered_by = strategy;
  }

(* Per connection: an endless statement stream (a function of the
   statement index), the length of one session script, and after how
   many statements the connection closes its session and opens a fresh
   one. *)
type conn_mix = { strategy : Strategy.t; nth : int -> stmt; pass_len : int; session_len : int }

(* Whether a session script starts at statement [i]. *)
let starts mix i = (mix.nth i).kind = Create_table

let ddl_kind = function
  | Mix.Create_table -> Create_table
  | Mix.Create_view -> Create_view
  | Mix.Query_after_ddl -> Query_after_ddl
  | Mix.Query -> Query
  | Mix.Drop -> Drop

(* A statement of a connection's cycle, or the [r]-th read of the
   cycle, which [read_pool] fills in turn. *)
type slot = Fixed of stmt | Read of int

(* Connection 0 appends a snapshot swap to every [Mix.swap_every]-th
   script; scripts cycle through the four seeded slices, and each reads
   two statements of [Mix.read_pool] while its table and view exist,
   so the reads run on a catalog version no cache has seen. The reads
   go through the whole pool in turn, the connections half a pool
   apart, so a run meets every one of them many times. A session
   lasts four cycles: the server keeps every CREATE and DROP of a
   session in its replay log for the session's lifetime and replays
   the whole log on each rebase, so a session that never ends would
   make the cost of a swap grow with the run's length. *)
let ddl_mixes ~seed =
  let slices = Array.of_list (Mix.ddl_slices ~seed) in
  let pool = Array.of_list (Mix.read_pool ~seed) in
  let npool = Array.length pool in
  let scripts = Array.length slices * Mix.swap_every in
  List.mapi
    (fun c strategy ->
      let db = Tpch.Tpch_gen.generate ~sf:Mix.serve_sf () in
      (* the reads never name a script's table or view, so their
         answers do not depend on where in a script they run *)
      let reads = Array.mapi (fun k sql -> expected db strategy (100_000 + k) Query sql) pool in
      (* statements are executed locally in script order: the CREATEs
         before the queries over them, the DROPs last *)
      let script it =
        let before, after = Mix.ddl_script ~conn:c slices.(it mod Array.length slices) in
        let fixed base =
          List.mapi (fun i (k, sql) -> Fixed (expected db strategy ((100 * it) + base + i) (ddl_kind k) sql))
        in
        let before = fixed 0 before in
        let after = fixed 50 after in
        before
        @ List.init Mix.reads_per_script (fun k -> Read ((Mix.reads_per_script * it) + k))
        @ after
        @ if c = 0 && (it + 1) mod Mix.swap_every = 0 then [ Fixed (swap_stmt strategy) ] else []
      in
      let cycle = Array.of_list (List.concat (List.init scripts script)) in
      let len = Array.length cycle and per_cycle = Mix.reads_per_script * scripts in
      {
        strategy;
        nth =
          (fun i ->
            match cycle.(i mod len) with
            | Fixed st -> st
            | Read r -> reads.(((i / len * per_cycle) + r + (c * npool / 2)) mod npool));
        pass_len = Mix.ddl_script_len;
        session_len = 4 * len;
      })
    Mix.session_strategies

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type sample = { s_stmt : stmt; s_ms : float }

type conn = {
  cl : C.t;
  mix : conn_mix;
  mutable next : int;
  mutable samples : sample list;
  mutable attempted : int;
  mutable errors : int;  (** typed errors and shed requests *)
  mutable wrong : int;
  mutable retries : int;
  mutable first_problem : string option;
}

let note_problem c msg = if c.first_problem = None then c.first_problem <- Some msg

let set_strategy cl mix =
  match C.request cl (P.Set_strategy (Strategy.to_string mix.strategy)) with
  | P.Ok_msg _, _ -> ()
  | _ -> failwith "Set_strategy refused"

let connect ~port mix =
  let cl = C.create ~host ~port () in
  set_strategy cl mix;
  {
    cl;
    mix;
    next = 0;
    samples = [];
    attempted = 0;
    errors = 0;
    wrong = 0;
    retries = 0;
    first_problem = None;
  }

(* Send the connection's next statement; [trace] wraps the exchange in
   driver-side spans. The answer check runs after the clock stops. *)
let send ?(t_from : float option) ?(trace = false) c =
  if c.next > 0 && c.next mod c.mix.session_len = 0 then begin
    (* the client reconnects lazily, into a fresh session *)
    C.close c.cl;
    set_strategy c.cl c.mix
  end;
  let st = c.mix.nth c.next in
  c.next <- c.next + 1;
  c.attempted <- c.attempted + 1;
  let t0 = Tr.now () in
  let exchange () = C.request c.cl st.req in
  match
    if trace then begin
      let req = Tr.fresh_req () in
      let resp =
        Tr.span ~req ("req." ^ kind_name st.kind) (fun root ->
            Tr.span ~req ~parent:root "client.request" (fun _ -> exchange ()))
      in
      let frame = P.encode_response (fst resp) in
      Tr.count "protocol.resp_bytes" (float_of_int (Bytes.length frame));
      let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
      ignore (Tr.span ~req "protocol.decode" (fun _ -> P.decode_response payload));
      resp
    end
    else exchange ()
  with
  | resp, retries ->
      let ms = (Tr.now () -. Option.value t_from ~default:t0) *. 1000. in
      c.retries <- c.retries + retries;
      (match resp with
      | P.Error_msg { e_phase; e_msg; _ } ->
          c.errors <- c.errors + 1;
          note_problem c (Printf.sprintf "error [%s] %s (statement %d of the mix, index %d)" e_phase e_msg st.id (c.next - 1))
      | P.Overloaded _ ->
          c.errors <- c.errors + 1;
          note_problem c "shed by admission control"
      | resp when not (matches st.expect resp) ->
          c.wrong <- c.wrong + 1;
          note_problem c (Printf.sprintf "wrong answer to statement %d of the mix, index %d" st.id (c.next - 1))
      | _ -> c.samples <- { s_stmt = st; s_ms = ms } :: c.samples);
      ()
  | exception C.Client_error m ->
      c.errors <- c.errors + 1;
      note_problem c m

let ping c =
  let req = Tr.fresh_req () in
  ignore (Tr.span ~req "wire.ping" (fun _ -> C.request c.cl P.Ping))

(* Run [body] on every connection in its own thread; wait for all. *)
let on_all conns body = List.map (fun c -> Thread.create body c) conns |> List.iter Thread.join

(* One full pass of every connection's mix. *)
let warm conns = on_all conns (fun c -> for _ = 1 to c.mix.pass_len do send c done)

(* Closed loop; a connection that runs out of time finishes its current
   session script, so the next phase starts on a clean session. With
   [~pings] a Ping follows every tenth statement: handler and queueing
   cost on a loaded connection without any evaluation. *)
let closed ?(trace = false) ?(pings = false) conns ~seconds =
  let t0 = Tr.now () in
  let deadline = t0 +. seconds in
  on_all conns (fun c ->
      let k = ref 0 in
      while Tr.now () < deadline || not (starts c.mix c.next) do
        send ~trace c;
        incr k;
        if pings && !k mod 10 = 0 then ping c
      done);
  Tr.now () -. t0

(* Open loop: due times at [rate]/s shared by all connections; a
   connection claims the next due slot when it is free, so a stall on
   one delays the slots it claims and the latency, timed from the due
   time, shows it. Returns the generator's wake-up lateness in ms. *)
let open_loop conns ~seconds ~rate =
  let start = Tr.now () in
  let n = max 1 (int_of_float (seconds *. rate)) in
  let slot = Atomic.make 0 in
  let late = ref [] and late_mu = Mutex.create () in
  on_all conns (fun c ->
      let rec go () =
        let i = Atomic.fetch_and_add slot 1 in
        if i < n then begin
          let due = start +. (float_of_int i /. rate) in
          let t = Tr.now () in
          if t < due then begin
            Unix.sleepf (due -. t);
            let l = (Tr.now () -. due) *. 1000. in
            Mutex.protect late_mu (fun () -> late := l :: !late)
          end;
          send ~t_from:due c;
          go ()
        end
      in
      go ());
  !late

let take_samples conns =
  let s = List.concat_map (fun c -> c.samples) conns in
  List.iter (fun c -> c.samples <- []) conns;
  s

let stats c =
  match C.request c.cl P.Stats with
  | P.Stats_msg kv, _ -> kv
  | _ -> failwith "Stats refused"

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Open-loop offered rate, requests/s: about a third of the
   closed-loop capacity. *)
let open_rate = 300.

let setups = 5

(* Set-up: server start, connections, one warm-up pass of the mix on
   every connection. Repeated [setups] times; all but the last server
   are stopped again. *)
let setup ~exe mixes =
  let once () =
    let t0 = Tr.now () in
    let sv = start ~exe in
    let conns = List.map (connect ~port:sv.port) mixes in
    warm conns;
    let t = Tr.now () -. t0 in
    ignore (take_samples conns);
    (t, sv, conns)
  in
  let rec go k times =
    let t, sv, conns = once () in
    if k = 1 then (t :: times, sv, conns)
    else begin
      List.iter (fun c -> C.close c.cl) conns;
      ignore (stop sv);
      go (k - 1) (t :: times)
    end
  in
  go setups []

let totals conns =
  List.fold_left
    (fun (a, e, w) c -> (a + c.attempted, e + c.errors, w + c.wrong))
    (0, 0, 0) conns

(* CPU seconds of the server and of this driver so far. *)
let cpu sv = (Tr.cpu_seconds sv.pid, Tr.self_cpu_seconds ())

(* The measured closed loop, in slices. Also returns the server's and
   the driver's CPU seconds over it. *)
let closed_slices conns sv ~seconds =
  let slice_s = seconds /. float_of_int Tr.slices in
  let srv0, drv0 = cpu sv in
  let slices =
    List.init Tr.slices (fun _ ->
        let s = closed conns ~seconds:slice_s in
        (s, take_samples conns))
  in
  let srv1, drv1 = cpu sv in
  (slices, (srv1 -. srv0, drv1 -. drv0))

let ms = List.map (fun s -> s.s_ms)

let e2e_metrics ~setup_times ~slices ~rss =
  let by_stmt = Hashtbl.create 64 in
  List.iter
    (fun (_, samples) ->
      List.iter
        (fun s ->
          let key = (s.s_stmt.strategy, s.s_stmt.id, s.s_stmt.kind) in
          Hashtbl.replace by_stmt key (s.s_ms :: Option.value ~default:[] (Hashtbl.find_opt by_stmt key)))
        samples)
    slices;
  [
    ("setup_s", Tr.median setup_times);
    ("query_geomean_ms", Tr.geomean (Hashtbl.fold (fun _ xs acc -> Tr.median xs :: acc) by_stmt []));
  ]
  (* a slice holds thousands of statements *)
  @ Tr.closed_metrics ~p99_per_slice:true (List.map (fun (s, samples) -> (ms samples, s)) slices)
  @ [ ("peak_rss_mb", rss) ]

let report_problems conns =
  List.iter (fun c -> Option.iter (fun m -> prerr_endline ("connection problem: " ^ m)) c.first_problem) conns

let e2e ~exe ~seed ~seconds =
  let mixes = ddl_mixes ~seed in
  let setup_times, sv, conns = setup ~exe mixes in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> C.close c.cl) conns;
      ignore (stop sv))
    (fun () ->
      let slices, _ = closed_slices conns sv ~seconds in
      let rss = Tr.peak_rss_mb (string_of_int sv.pid) in
      report_problems conns;
      let attempted, errors, wrong = totals conns in
      {
        Tr.attempted;
        failed = errors + wrong;
        wrong;
        metrics = e2e_metrics ~setup_times ~slices ~rss;
        env =
          [
            ("connections", string_of_int (List.length conns));
            ( "closed_statements",
              string_of_int (List.fold_left (fun a (_, samples) -> a + List.length samples) 0 slices) );
          ];
      })

(* In-process replay of the connections' statements for the traced
   run: each statement as the server runs it (fallback ladder from the
   session strategy, then rendering), timed, and each query also
   through the span-instrumented pipeline under the strategy that
   answered it; the engine counters cover each connection's first pass.
   Returns the queries traced and the engine disagreements among them. *)
let replay mixes ~seconds =
  let dbs = List.map (fun _ -> Tpch.Tpch_gen.generate ~sf:Mix.serve_sf ()) mixes in
  let deadline = Tr.now () +. seconds in
  let queries = ref 0 and wrong = ref 0 and i = ref 0 in
  let one_pass = List.fold_left (fun a m -> max a m.pass_len) 0 mixes in
  while Tr.now () < deadline || !i < one_pass do
    List.iter2
      (fun mix db ->
        let st = mix.nth !i in
        match st.req with
        | P.Query sql ->
            let req = Tr.fresh_req () in
            Tr.span ~req "inproc.exec" (fun _ -> ignore (response_of (local_exec db st.strategy sql)));
            if st.kind = Query || st.kind = Query_after_ddl then begin
              incr queries;
              let ms = { Mix.pair = kind_name st.kind; group = ""; strategy = st.answered_by; db; sql } in
              if not (Inproc.traced_statement ~counted:(!i < mix.pass_len) ms) then begin
                incr wrong;
                prerr_endline ("wrong answer: compiled and vectorized differ on " ^ sql)
              end
            end
        | _ -> ())
      mixes dbs;
    incr i
  done;
  (!queries, !wrong)

let sum f conns = List.fold_left (fun a c -> a + f c) 0 conns

(* Traced run: the untraced closed loop for half the time; the open loop
   for a quarter; an eighth with driver-side spans around every
   exchange, whose throughput against the untraced closed loop's is the
   tracing overhead; an eighth with a Ping after every tenth statement;
   and a quarter replaying the statements in-process. *)
let traced ~exe ~seed ~seconds =
  let mixes = ddl_mixes ~seed in
  let setup_times, sv, conns = setup ~exe mixes in
  let finish () =
    List.iter (fun c -> C.close c.cl) conns;
    stop sv
  in
  let wire_phases () =
    let slices, (srv_cpu, drv_cpu) = closed_slices conns sv ~seconds:(seconds /. 2.) in
    let rss = Tr.peak_rss_mb (string_of_int sv.pid) in
    let e2e = e2e_metrics ~setup_times ~slices ~rss in
    let closed_n = float_of_int (List.fold_left (fun a (_, samples) -> a + List.length samples) 0 slices) in
    let late = open_loop conns ~seconds:(seconds /. 4.) ~rate:open_rate in
    let open_part = Tr.open_metrics (ms (take_samples conns)) ~late in
    let s0 = stats (List.hd conns) in
    let reconnects0 = sum (fun c -> C.reconnects c.cl) conns and retries0 = sum (fun c -> c.retries) conns in
    let traced_s = closed ~trace:true conns ~seconds:(seconds /. 8.) in
    let traced_n = float_of_int (List.length (take_samples conns)) in
    ignore (closed ~pings:true conns ~seconds:(seconds /. 8.));
    ignore (take_samples conns);
    let s1 = stats (List.hd conns) in
    let delta k = List.assoc k s1 -. List.assoc k s0 in
    report_problems conns;
    let attempted, errors, wrong = totals conns in
    ( { Tr.attempted; failed = errors + wrong; wrong; metrics = []; env = [] },
      List.assoc "latency_p50_ms" e2e,
      List.assoc "requests" s1,
      open_part
      @ [
        ("server.cpu_ms_per_query", srv_cpu *. 1000. /. closed_n);
        ("driver.cpu_ms_per_query", drv_cpu *. 1000. /. closed_n);
        ("server.shed", delta "shed");
        ("server.degraded", delta "degraded");
        ("server.epoch_swaps", delta "epoch_swaps");
        ("client.retries", float_of_int (sum (fun c -> c.retries) conns - retries0));
        ("client.reconnects", float_of_int (sum (fun c -> C.reconnects c.cl) conns - reconnects0));
        ( "trace.overhead_pct",
          Inproc.overhead_pct ~traced_qps:(traced_n /. traced_s)
            ~untraced_qps:(List.assoc "throughput_qps" e2e) );
      ] )
  in
  let base, wire_p50, requests, wire_part =
    match wire_phases () with
    | r -> r
    | exception e ->
        ignore (finish ());
        raise e
  in
  (* the server's runtime reports its GC totals as it exits; a run
     without them lacks the metric and fails *)
  let gc =
    match major_collections (finish ()) with
    | Some n ->
        [ ("gc.major_collections", float_of_int n *. float_of_int (sum (fun c -> c.mix.pass_len) conns) /. requests) ]
    | None -> []
  in
  let queries, replay_wrong = replay mixes ~seconds:(seconds /. 4.) in
  (* a metric whose spans never ran is left out, which fails the run *)
  let med span = match Tr.durations span with [] -> None | xs -> Some (Tr.median xs) in
  let spans =
    List.filter_map
      (fun (m, v) -> Option.map (fun v -> (m, v)) v)
      [
        ("wire.ping_rtt_ms", med "wire.ping");
        ("session.create_table_ms", med "req.create_table");
        ("session.create_view_ms", med "req.create_view");
        ("session.drop_ms", med "req.drop");
        ("session.swap_ms", med "req.swap");
        ("session.first_query_after_ddl_ms", med "req.first_query_after_ddl");
        ("server.unattributed_ms", Option.map (fun v -> wire_p50 -. v) (med "inproc.exec"));
      ]
  in
  let nreq = float_of_int (max 1 (List.length (Tr.durations "client.request"))) in
  let failed = base.Tr.failed + replay_wrong in
  let metrics =
    Inproc.layer_metrics ~statements:queries
    @ wire_part @ gc @ spans
    @ [
        ("protocol.resp_bytes", Tr.counter "protocol.resp_bytes" /. nreq);
        ("protocol.decode_ms", Tr.total_ms "protocol.decode" /. nreq);
        ("failed_frac", float_of_int failed /. float_of_int (max 1 base.Tr.attempted));
      ]
  in
  {
    Tr.attempted = base.Tr.attempted;
    failed;
    wrong = base.Tr.wrong + replay_wrong;
    metrics;
    env =
      [ ("traced_requests", Printf.sprintf "%.0f" nreq); ("replayed_queries", string_of_int queries) ]
      @ Inproc.share_env ();
  }
