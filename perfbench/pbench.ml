(* pbench — the repository's benchmark driver.

   pbench --workload W --seed N --seconds S --trace 0|1 [--server EXE] [--out DIR]

   Runs one workload for S measured seconds after its set-up, checks
   every answer, prints the run environment as one JSON line and the
   result as the last line:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   With --trace 0 the metrics are the end-to-end ones, from a closed
   loop; with --trace 1 they are the per-layer ones, from a run that
   adds the open loop and the traced phases (1.25 to 1.5 times S), and
   the spans are written to DIR/trace-W-N.jsonl. Exits 1 on any wrong answer, and on any metric
   the run should have measured but did not. perfbench/run.py builds
   this driver and the server, then calls it. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_qps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("query_geomean_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("sql.parse_ms", "ms");
    ("sql.analyze_ms", "ms");
    ("rewrite_ms", "ms");
    ("typecheck_ms", "ms");
    ("optimizer_ms", "ms");
    ("optimizer.reorder_ms", "ms");
    ("estimate_ms", "ms");
    ("optimizer.alloc_mw", "Mword");
    ("eval.compiled_ms", "ms");
    ("eval.vectorized_ms", "ms");
    ("materialize_ms", "ms");
    ("eval.alloc_mw", "Mword");
    ("eval.nested_pairs", "count");
    ("eval.hash_joins", "count");
    ("eval.sublink_evals", "count");
    ("eval.sublink_hit_ratio", "ratio");
    ("eval.rows_per_result", "ratio");
    ("render_ms", "ms");
    ("protocol.resp_bytes", "B");
    ("protocol.decode_ms", "ms");
    ("wire.ping_rtt_ms", "ms");
    ("server.cpu_ms_per_query", "ms");
    ("driver.cpu_ms_per_query", "ms");
    ("server.unattributed_ms", "ms");
    ("server.shed", "count");
    ("server.degraded", "count");
    ("server.epoch_swaps", "count");
    ("client.retries", "count");
    ("client.reconnects", "count");
    ("session.create_table_ms", "ms");
    ("session.create_view_ms", "ms");
    ("session.drop_ms", "ms");
    ("session.swap_ms", "ms");
    ("session.first_query_after_ddl_ms", "ms");
    ("gc.major_collections", "count");
    ("unattributed_ms", "ms");
    ("trace.overhead_pct", "%");
    ("open_p50_ms", "ms");
    ("open_p99_ms", "ms");
    ("driver.late_ms", "ms");
    ("failed_frac", "ratio");
  ]

(* Per-layer metrics of the wire, the server and its sessions, which
   the in-process workload has none of. They print as 0 there, since
   every per-layer metric is printed; a metric missing from any other
   run fails it. *)
let served_only =
  [
    "protocol.resp_bytes";
    "protocol.decode_ms";
    "wire.ping_rtt_ms";
    "server.cpu_ms_per_query";
    "driver.cpu_ms_per_query";
    "server.unattributed_ms";
    "server.shed";
    "server.degraded";
    "server.epoch_swaps";
    "client.retries";
    "client.reconnects";
    "session.create_table_ms";
    "session.create_view_ms";
    "session.drop_ms";
    "session.swap_ms";
    "session.first_query_after_ddl_ms";
  ]

let usage () =
  prerr_endline
    "usage: pbench --workload plan-heavy|serve-ddl --seed N --seconds S \
     --trace 0|1 [--server EXE] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let server = ref "_build/default/bin/permserver.exe" and out = ref "perfbench/out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--server" :: v :: rest -> server := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (* leave through [exit] on a signal, so the at_exit handler stops the
     server this driver started *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  let seed = !seed and seconds = !seconds in
  let all0, steal0 = Tr.host_ticks () in
  let report, not_applicable =
    match !workload with
    | "plan-heavy" ->
        if !trace then (Inproc.traced ~seed ~seconds, served_only)
        else
          let r, _, _ = Inproc.e2e ~seed ~seconds () in
          (r, [])
    | "serve-ddl" ->
        let exe = !server in
        ((if !trace then Served.traced ~exe ~seed ~seconds else Served.e2e ~exe ~seed ~seconds), [])
    | _ -> usage ()
  in
  let all1, steal1 = Tr.host_ticks () in
  let catalog = if !trace then per_layer else end_to_end in
  let missing =
    List.filter
      (fun (m, _) -> not (List.mem_assoc m report.Tr.metrics || List.mem m not_applicable))
      catalog
  in
  if missing <> [] then begin
    prerr_endline ("pbench: metrics not measured: " ^ String.concat ", " (List.map fst missing));
    exit 1
  end;
  let env =
    [
      ("workload", !workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", if !trace then "1" else "0");
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("engine", Relalg.Eval.engine_name !Relalg.Eval.default_engine);
      ("vexec.domains", string_of_int !Relalg.Vexec.domains);
      ("vexec.batch_rows", string_of_int !Relalg.Vexec.batch_rows);
      ( "host.steal_pct",
        Printf.sprintf "%.1f" (100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (all1 - all0))) );
    ]
    @ report.Tr.env
    @
    if not_applicable = [] then []
    else [ ("not_applicable", String.concat "," not_applicable) ]
  in
  if !trace then begin
    (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
    Tr.write_trace (Filename.concat !out (Printf.sprintf "trace-%s-%d.jsonl" !workload seed))
  end;
  print_endline
    ("{\"env\": {"
    ^ String.concat ", " (List.map (fun (k, v) -> Tr.json_string k ^ ": " ^ Tr.json_string v) env)
    ^ "}}");
  let metric (m, unit) =
    (* only a metric of [not_applicable] can be absent here *)
    let v = Option.value ~default:0. (List.assoc_opt m report.Tr.metrics) in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Tr.json_string m) (Tr.json_float v)
      (Tr.json_string unit)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (report.Tr.wrong = 0) report.Tr.attempted report.Tr.failed
    (String.concat ", " (List.map metric catalog));
  exit (if report.Tr.wrong = 0 then 0 else 1)
