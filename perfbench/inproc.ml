(* The in-process workload, plan-heavy: TPC-H at sf 0.01, the sublink
   templates under every applicable strategy with fresh parameters on
   every pass, run by one thread calling [Perm.exec ~fallback:false]
   with an explicit strategy, so the figures do not depend on which
   modules happen to be linked. *)

open Relalg
open Core

(* Open-loop offered rate, statements/s: about a quarter of the
   closed-loop capacity. *)
let open_rate = 50.

(* Set-ups per run; [setup_s] is their median. *)
let setups = 5

(* Every answer is compared with the reference engine's on the warm-up
   passes and on every [check_every]-th measured pass. *)
let check_engine = Eval.Reference
let check_every = 8

(* Builds the database; returns the length of one pass, the pairs left
   out with their reasons, and the pass generator. *)
let setup ~seed () =
  let db = Tpch.Tpch_gen.generate ~sf:Mix.plan_sf () in
  let pairs, excluded = Mix.pairs db in
  (List.length pairs, excluded, Mix.plan_pass ~seed db pairs)

type outcome = {
  o_pass : int;
  o_stmt : Mix.stmt;
  o_ms : float;  (** latency; from the due time in the open loop *)
  o_ck : int;  (** bag checksum of the whole result *)
  o_prefix : int;  (** set checksum of the original columns *)
}

let result_of ?engine (st : Mix.stmt) : Perm.result =
  match Perm.exec st.Mix.db ~strategy:st.Mix.strategy ?engine ~fallback:false st.Mix.sql with
  | Perm.Rows r -> r
  | _ -> failwith "statement is not a query"

let original_width (r : Perm.result) =
  Schema.arity (Relation.schema r.Perm.relation) - Pschema.width r.Perm.provenance

(* Run one statement, consuming its whole result inside the timed
   region. [t_from] is when the latency clock starts (the due time in
   the open loop). *)
let execute ?t_from ~pass st =
  let t0 = Tr.now () in
  let r = result_of st in
  let ck = Tr.checksum r.Perm.relation in
  let ms = (Tr.now () -. Option.value t_from ~default:t0) *. 1000. in
  {
    o_pass = pass;
    o_stmt = st;
    o_ms = ms;
    o_ck = ck;
    o_prefix = Tr.prefix_set_checksum ~width:(original_width r) r.Perm.relation;
  }

(* Outcome bookkeeping for one run. Outcomes are checked and dropped
   after each slice, so the driver's own heap stays flat. *)
type acc = {
  mutable outs : outcome list;
  mutable errors : int;
  mutable wrong : int;
  mutable attempted : int;
  mutable first_error : string option;
}

let new_acc () = { outs = []; errors = 0; wrong = 0; attempted = 0; first_error = None }

let attempt acc ?t_from ~pass st =
  acc.attempted <- acc.attempted + 1;
  match execute ?t_from ~pass st with
  | o -> acc.outs <- o :: acc.outs
  | exception e ->
      acc.errors <- acc.errors + 1;
      if acc.first_error = None then
        acc.first_error <- Some (Printf.sprintf "%s: %s" st.Mix.pair (Printexc.to_string e))

(* Take the outcomes recorded since the last call. *)
let take acc =
  let o = acc.outs in
  acc.outs <- [];
  o

(* A pass stream: successive passes of the mix, numbered from [first]. *)
let stream ?(first = 1) gen =
  let p = ref (first - 1) and cur = ref [] in
  fun () ->
    (match !cur with
    | [] ->
        incr p;
        cur := gen !p
    | _ -> ());
    match !cur with
    | st :: rest ->
        cur := rest;
        (!p, st)
    | [] -> failwith "empty mix"

(* Set-up: data generation plus one complete warm-up pass. Returns the
   set-up time, the warm-up pass's own time, and what [setup] returns
   with the pass stream that continues after the warm-up pass. *)
let setup_once ~seed acc =
  let t0 = Tr.now () in
  let pass_len, excluded, gen = setup ~seed () in
  let next = stream gen in
  let t1 = Tr.now () in
  for _ = 1 to pass_len do
    let p, st = next () in
    attempt acc ~pass:(-p) st
  done;
  let t2 = Tr.now () in
  (t2 -. t0, t2 -. t1, (pass_len, excluded, gen, next))

(* Closed loop over [n] statements. *)
let closed acc ~next ~n =
  let t0 = Tr.now () in
  for _ = 1 to n do
    let p, st = next () in
    attempt acc ~pass:p st
  done;
  Tr.now () -. t0

(* Open loop of [n] statements at [rate] statements/s, each timed from
   its due time.
   Returns the generator's lateness in ms: how far past the due time it
   woke when it had to wait; a statement issued late because the
   previous one ran long is backlog, which the latency already counts. *)
let open_loop acc ~next ~n ~rate =
  let start = Tr.now () in
  let late = ref [] in
  for i = 0 to n - 1 do
    let due = start +. (float_of_int i /. rate) in
    let p, st = next () in
    let t = Tr.now () in
    if t < due then begin
      Unix.sleepf (due -. t);
      late := ((Tr.now () -. due) *. 1000.) :: !late
    end;
    attempt acc ~t_from:due ~pass:p st
  done;
  !late

(* ------------------------------------------------------------------ *)
(* Answer checks (outside every timed region)                          *)
(* ------------------------------------------------------------------ *)

(* A checker counting wrong answers into [acc], as two functions:
   [batch] takes a batch of outcomes holding whole passes and checks
   that statements of one instantiation agree on the original columns
   whatever the strategy; it also notes the checksums of the warm-up
   passes and of every [check_every]-th pass. [against_engine] then
   regenerates each noted statement with [gen] and runs it again
   through the same pipeline on the check engine; every checksum noted
   for it must equal that result's. The engine runs after the measured
   phases, once the peak RSS has been read, since some instantiations
   take the reference engine several MiB above anything the measured
   statements reach; and only pass numbers and checksums are kept
   until then, so the driver's heap does not grow with the number of
   statements a run gets through. *)
let checker acc ~gen =
  let complain fmt =
    Printf.ksprintf (fun s -> acc.wrong <- acc.wrong + 1; prerr_endline ("wrong answer: " ^ s)) fmt
  in
  let noted = Hashtbl.create 64 in
  let batch outs =
    (* no instantiation recurs in a later batch *)
    let groups = Hashtbl.create 64 in
    List.iter
      (fun o ->
        let st = o.o_stmt in
        (match Hashtbl.find_opt groups st.Mix.group with
        | None -> Hashtbl.add groups st.Mix.group (st.Mix.pair, o.o_prefix)
        | Some (pair0, prefix0) ->
            if prefix0 <> o.o_prefix then
              complain "%s and %s disagree on the original columns of %s" pair0 st.Mix.pair st.Mix.group);
        if o.o_pass < 0 || o.o_pass mod check_every = 0 then
          (* warm-up passes are numbered from -1 down *)
          let key = (abs o.o_pass, st.Mix.pair) in
          Hashtbl.replace noted key (o.o_ck :: Option.value ~default:[] (Hashtbl.find_opt noted key)))
      outs
  in
  let against_engine () =
    let passes = Hashtbl.fold (fun (p, _) _ acc -> p :: acc) noted [] |> List.sort_uniq compare in
    List.iter
      (fun p ->
        List.iter
          (fun (st : Mix.stmt) ->
            match Hashtbl.find_opt noted (p, st.Mix.pair) with
            | None -> ()
            | Some cks ->
                let ck = Tr.checksum (result_of ~engine:check_engine st).Perm.relation in
                if List.exists (( <> ) ck) cks then
                  complain "%s (%s) differs from the %s engine" st.Mix.pair st.Mix.group
                    (Eval.engine_name check_engine))
          (gen p))
      passes;
    Hashtbl.reset noted
  in
  (batch, against_engine)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* The run: set-ups, then the closed loop for [seconds]; with
   [~open_seconds] the open loop follows for that long. *)
let e2e ?(open_seconds = 0.) ~seed ~seconds () =
  let acc = new_acc () in
  let runs = List.init setups (fun _ -> setup_once ~seed acc) in
  let setup_times = List.map (fun (t, _, _) -> t) runs in
  let warm_pass_s = Tr.median (List.map (fun (_, w, _) -> w) runs) in
  let _, _, (pass_len, excluded, gen, next) = List.nth runs (setups - 1) in
  let check, against_engine = checker acc ~gen in
  check (take acc);
  (* both loops run whole passes, so every slice offers the same mix *)
  let passes = max 1 (Float.to_int (Float.round (seconds /. float_of_int Tr.slices /. warm_pass_s))) in
  let by_pair = Hashtbl.create 32 in
  let slices =
    List.init Tr.slices (fun _ ->
        let closed_s = closed acc ~next ~n:(passes * pass_len) in
        let c = take acc in
        List.iter
          (fun o ->
            let p = o.o_stmt.Mix.pair in
            Hashtbl.replace by_pair p (o.o_ms :: Option.value ~default:[] (Hashtbl.find_opt by_pair p)))
          c;
        check c;
        (List.map (fun o -> o.o_ms) c, closed_s))
  in
  let open_part =
    if open_seconds <= 0. then []
    else begin
      (* the open loop replays the same statements in every run of a
         seed, whatever the closed loop got through *)
      let open_next = stream ~first:Mix.open_first_pass gen in
      let open_passes = max 1 (Float.to_int (Float.round (open_seconds *. open_rate /. float_of_int pass_len))) in
      let late = open_loop acc ~next:open_next ~n:(open_passes * pass_len) ~rate:open_rate in
      let o = take acc in
      check o;
      Tr.open_metrics (List.map (fun o -> o.o_ms) o) ~late
    end
  in
  Option.iter (fun e -> prerr_endline ("error: " ^ e)) acc.first_error;
  let pair_medians =
    Hashtbl.fold (fun p xs acc -> (p, Tr.median xs) :: acc) by_pair [] |> List.sort compare
  in
  let metrics =
    [ ("setup_s", Tr.median setup_times); ("query_geomean_ms", Tr.geomean (List.map snd pair_medians)) ]
    (* a slice holds about 1600 statements, which a slowed machine
       takes below [Tr.min_p99_samples] *)
    @ Tr.closed_metrics ~p99_per_slice:false slices
    @ [ ("peak_rss_mb", Tr.peak_rss_mb "self") ]
    @ open_part
  in
  against_engine ();
  let env =
    [
      ("closed_statements", string_of_int (List.fold_left (fun a (ms, _) -> a + List.length ms) 0 slices));
      ("passes_per_slice", string_of_int passes);
    ]
    @ (if open_part = [] then [] else [ ("open_rate_per_s", Printf.sprintf "%g" open_rate) ])
    @ List.map (fun (p, ms) -> ("median_ms." ^ p, Printf.sprintf "%.3f" ms)) pair_medians
    @ List.map (fun (p, why) -> ("excluded." ^ p, why)) excluded
  in
  ( { Tr.attempted = acc.attempted; failed = acc.errors + acc.wrong; wrong = acc.wrong; metrics; env },
    gen,
    pass_len )

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let mwords_since b0 = (Gc.allocated_bytes () -. b0) /. 8. /. 1e6

(* The server's wire form of a result: every value rendered, capped at
   the server's default 10 000-row reply. *)
let render rel =
  List.filteri (fun i _ -> i < 10_000) (Relation.tuples rel)
  |> List.map (fun (t : Tuple.t) -> Array.to_list (Array.map Value.to_string (t :> Value.t array)))

(* One statement through the pipeline [Perm.exec] runs, a span around
   each layer's public function, then the diagnostic calls: the
   optimizer without join reorder, one estimate pass, the vectorized
   engine with its lazy result forced separately, rendering, and the
   untraced [Perm.exec] whose surplus over the layers is unattributed
   time. With [~counted] the engine's execution counters are added to
   the run's; callers count exactly one pass of a fixed statement
   sequence, so the counts repeat exactly from run to run. Returns
   whether the engines agreed. *)
let traced_statement ~counted (st : Mix.stmt) =
  let req = Tr.fresh_req () in
  let db = st.Mix.db and strategy = st.Mix.strategy in
  let plan, q_plus, ck =
    Tr.span ~req "statement" (fun root ->
        let sel =
          Tr.span ~req ~parent:root "sql.parse" (fun _ ->
              match Sql_frontend.Parser.parse_statement st.Mix.sql with
              | Sql_frontend.Ast.Stmt_select sel -> sel
              | _ -> failwith "statement is not a query")
        in
        let an = Tr.span ~req ~parent:root "sql.analyze" (fun _ -> Sql_frontend.Analyzer.analyze db sel) in
        let q = an.Sql_frontend.Analyzer.query and wants = an.Sql_frontend.Analyzer.wants_provenance in
        let q_plus =
          if not wants then q
          else begin
            let q_plus, _ = Tr.span ~req ~parent:root "rewrite" (fun _ -> Rewrite.rewrite db ~strategy q) in
            Tr.span ~req ~parent:root "typecheck" (fun _ -> Typecheck.check db q_plus);
            q_plus
          end
        in
        let b0 = Gc.allocated_bytes () in
        let plan = Tr.span ~req ~parent:root "optimizer" (fun _ -> Optimizer.optimize db q_plus) in
        Tr.count "optimizer.alloc_mw" (mwords_since b0);
        let b0 = Gc.allocated_bytes () in
        let rel, stats =
          Tr.span ~req ~parent:root "eval.compiled" (fun _ -> Eval.query_stats_compiled db plan)
        in
        Tr.count "eval.alloc_mw" (mwords_since b0);
        if counted then begin
          Tr.count "counted_statements" 1.;
          Tr.count "eval.nested_pairs" (float_of_int stats.Eval.st_nested_pairs);
          Tr.count "eval.hash_joins" (float_of_int stats.Eval.st_hash_joins);
          Tr.count "eval.sublink_evals" (float_of_int stats.Eval.st_sublink_evals);
          Tr.count "eval.sublink_hits" (float_of_int stats.Eval.st_sublink_hits);
          Tr.count "eval.rows_emitted" (float_of_int stats.Eval.st_rows_emitted);
          Tr.count "eval.result_rows" (float_of_int (Relation.cardinality rel))
        end;
        let ck = Tr.span ~req ~parent:root "materialize.compiled" (fun _ -> Tr.checksum rel) in
        (plan, q_plus, ck))
  in
  Tr.span ~req "diagnostics" (fun root ->
      ignore
        (Tr.span ~req ~parent:root "optimizer.noreorder" (fun _ ->
             Optimizer.optimize ~reorder:false db q_plus));
      ignore
        (Tr.span ~req ~parent:root "estimate" (fun _ -> Estimate.cost (Estimate.create db) q_plus));
      let rv = Tr.span ~req ~parent:root "eval.vectorized" (fun _ -> Eval.query_vectorized db plan) in
      ignore (Tr.span ~req ~parent:root "materialize" (fun _ -> Relation.tuples rv));
      let ckv = Tr.checksum rv in
      ignore (Tr.span ~req ~parent:root "render" (fun _ -> render rv));
      Tr.span ~req ~parent:root "perm.exec" (fun _ -> ignore (Tr.checksum (result_of st).Perm.relation));
      ck = ckv)

let pipeline_layers =
  [ "sql.parse"; "sql.analyze"; "rewrite"; "typecheck"; "optimizer"; "eval.compiled"; "materialize.compiled" ]

(* Per-statement means of the in-process layers over the traced
   statements, shared with the served workload's traced run. *)
let layer_metrics ~statements =
  let n = float_of_int (max 1 statements) in
  let per name = Tr.total_ms name /. n in
  let ratio a b = if Tr.counter b = 0. then 0. else Tr.counter a /. Tr.counter b in
  let layers_sum = List.fold_left (fun acc l -> acc +. per l) 0. pipeline_layers in
  [
    ("sql.parse_ms", per "sql.parse");
    ("sql.analyze_ms", per "sql.analyze");
    ("rewrite_ms", per "rewrite");
    ("typecheck_ms", per "typecheck");
    ("optimizer_ms", per "optimizer");
    ("optimizer.reorder_ms", per "optimizer" -. per "optimizer.noreorder");
    ("estimate_ms", per "estimate");
    ("optimizer.alloc_mw", Tr.counter "optimizer.alloc_mw" /. n);
    ("eval.compiled_ms", per "eval.compiled");
    ("eval.vectorized_ms", per "eval.vectorized");
    ("materialize_ms", per "materialize");
    ("eval.alloc_mw", Tr.counter "eval.alloc_mw" /. n);
    ("eval.nested_pairs", ratio "eval.nested_pairs" "counted_statements");
    ("eval.hash_joins", ratio "eval.hash_joins" "counted_statements");
    ("eval.sublink_evals", ratio "eval.sublink_evals" "counted_statements");
    ("eval.sublink_hit_ratio", ratio "eval.sublink_hits" "eval.sublink_evals");
    ("eval.rows_per_result", ratio "eval.rows_emitted" "eval.result_rows");
    ("render_ms", per "render");
    ("unattributed_ms", per "perm.exec" -. layers_sum);
  ]

(* Each layer's share, in %, of the time the traced statements spent in
   the pipeline [Perm.exec] runs. *)
let shares () =
  let parts = List.map (fun l -> (l, Tr.total_ms l)) pipeline_layers in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. parts in
  List.map (fun (l, v) -> (l, if total = 0. then 0. else 100. *. v /. total)) parts

(* The layer-share predictions plan-heavy was defined with, checked
   against its traced run and reported as confirmed or failed. *)
let predictions =
  [
    ( "optimizer is the largest layer",
      fun sh ->
        let opt = List.assoc "optimizer" sh in
        List.for_all (fun (l, v) -> l = "optimizer" || v < opt) sh );
    ( "parse+analyze+rewrite+typecheck at most 10%",
      fun sh ->
        List.fold_left ( +. ) 0.
          (List.map (fun l -> List.assoc l sh) [ "sql.parse"; "sql.analyze"; "rewrite"; "typecheck" ])
        <= 10. );
  ]

let share_env ?(predictions = []) () =
  let sh = shares () in
  List.map (fun (l, v) -> ("share." ^ l ^ "_pct", Printf.sprintf "%.1f" v)) sh
  @ List.map
      (fun (what, holds) -> ("prediction: " ^ what, if holds sh then "confirmed" else "FAILS"))
      predictions

(* The drop, in %, of closed-loop throughput when the same statements
   run traced; the tracing overhead on every workload. *)
let overhead_pct ~traced_qps ~untraced_qps = 100. *. (1. -. (traced_qps /. untraced_qps))

(* Traced run: the untraced closed loop for half the time, then the
   open loop for half the time, then for half the time again, and at
   least one whole pass of a fixed statement sequence, through the
   spans. *)
let traced ~seed ~seconds =
  let base, gen, pass_len = e2e ~seed ~seconds:(seconds /. 2.) ~open_seconds:(seconds /. 2.) () in
  let next = stream ~first:2_000_000 gen in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let deadline = Tr.now () +. (seconds /. 2.) in
  let n = ref 0 and failed = ref 0 and wrong = ref 0 in
  while Tr.now () < deadline || !n < pass_len do
    let _, st = next () in
    incr n;
    match traced_statement ~counted:(!n <= pass_len) st with
    | true -> ()
    | false ->
        incr wrong;
        incr failed;
        prerr_endline ("wrong answer: " ^ st.Mix.pair ^ " differs between compiled and vectorized")
    | exception e ->
        incr failed;
        prerr_endline ("error: " ^ st.Mix.pair ^ ": " ^ Printexc.to_string e)
  done;
  let gc1 = (Gc.quick_stat ()).Gc.major_collections in
  let ok = !n - !failed in
  let attempted = base.Tr.attempted + !n in
  let failed_all = base.Tr.failed + !failed in
  let metrics =
    layer_metrics ~statements:ok
    @ [
        ( "gc.major_collections",
          float_of_int (gc1 - gc0) *. float_of_int pass_len /. float_of_int (max 1 !n) );
        (* the instrumented pipeline against the untraced [Perm.exec]
           of the same statements, interleaved so drift cancels *)
        ( "trace.overhead_pct",
          overhead_pct
            ~traced_qps:(float_of_int ok /. Tr.total_ms "statement")
            ~untraced_qps:(float_of_int ok /. Tr.total_ms "perm.exec") );
        ("failed_frac", float_of_int failed_all /. float_of_int attempted);
      ]
    @ List.filter
        (fun (m, _) -> List.mem m [ "open_p50_ms"; "open_p99_ms"; "driver.late_ms" ])
        base.Tr.metrics
  in
  let env =
    base.Tr.env
    @ [ ("traced_statements", string_of_int !n); ("counted_statements", string_of_int pass_len) ]
    @ share_env ~predictions ()
  in
  { Tr.attempted; failed = failed_all; wrong = base.Tr.wrong + !wrong; metrics; env }
