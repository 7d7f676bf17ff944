(* TPC-H substrate tests: generator integrity, all nine sublink queries
   end-to-end, provenance rewrites at tiny scale, strategy agreement on
   the uncorrelated queries (Q11, Q15, Q16). *)

open Relalg
open Core
open Tpch

let db = lazy (Tpch_gen.generate ~seed:42 ~sf:0.04 ())

let get name = Database.find (Lazy.force db) name

let col rel name =
  let schema = Relation.schema rel in
  let idx = Schema.position_exn schema name in
  List.map (fun t -> Tuple.get t idx) (Relation.tuples rel)

let int_col rel name =
  List.map (function Value.Int n -> n | _ -> -1) (col rel name)

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)
(* ------------------------------------------------------------------ *)

let test_cardinalities () =
  Alcotest.(check int) "regions" 5 (Relation.cardinality (get "region"));
  Alcotest.(check int) "nations" 25 (Relation.cardinality (get "nation"));
  let c = Tpch_gen.cardinalities ~sf:0.04 in
  Alcotest.(check int) "suppliers" c.Tpch_gen.suppliers
    (Relation.cardinality (get "supplier"));
  Alcotest.(check int) "parts" c.Tpch_gen.parts (Relation.cardinality (get "part"));
  Alcotest.(check int) "orders" c.Tpch_gen.orders
    (Relation.cardinality (get "orders"));
  Alcotest.(check bool)
    "partsupp = min(4,suppliers) x parts" true
    (Relation.cardinality (get "partsupp")
    = min 4 c.Tpch_gen.suppliers * c.Tpch_gen.parts);
  let lines = Relation.cardinality (get "lineitem") in
  Alcotest.(check bool)
    "lineitem between 1x and 7x orders" true
    (lines >= c.Tpch_gen.orders && lines <= 7 * c.Tpch_gen.orders)

let test_determinism () =
  let db2 = Tpch_gen.generate ~seed:42 ~sf:0.04 () in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (name ^ " deterministic") true
        (Relation.equal_bag (get name) (Database.find db2 name)))
    Tpch_schema.all

let test_referential_integrity () =
  let keys rel name = int_col rel name in
  let contains l = let tbl = Hashtbl.create 64 in List.iter (fun k -> Hashtbl.replace tbl k ()) l; fun k -> Hashtbl.mem tbl k in
  let supp_keys = contains (keys (get "supplier") "s_suppkey") in
  let part_keys = contains (keys (get "part") "p_partkey") in
  let cust_keys = contains (keys (get "customer") "c_custkey") in
  let order_keys = contains (keys (get "orders") "o_orderkey") in
  let nation_keys = contains (keys (get "nation") "n_nationkey") in
  Alcotest.(check bool) "ps -> part" true
    (List.for_all part_keys (int_col (get "partsupp") "ps_partkey"));
  Alcotest.(check bool) "ps -> supplier" true
    (List.for_all supp_keys (int_col (get "partsupp") "ps_suppkey"));
  Alcotest.(check bool) "orders -> customer" true
    (List.for_all cust_keys (int_col (get "orders") "o_custkey"));
  Alcotest.(check bool) "lineitem -> orders" true
    (List.for_all order_keys (int_col (get "lineitem") "l_orderkey"));
  Alcotest.(check bool) "lineitem -> part" true
    (List.for_all part_keys (int_col (get "lineitem") "l_partkey"));
  Alcotest.(check bool) "supplier -> nation" true
    (List.for_all nation_keys (int_col (get "supplier") "s_nationkey"));
  Alcotest.(check bool) "customer -> nation" true
    (List.for_all nation_keys (int_col (get "customer") "c_nationkey"))

let test_date_sanity () =
  let li = get "lineitem" in
  let ship = col li "l_shipdate" and receipt = col li "l_receiptdate" in
  Alcotest.(check bool)
    "receipt after ship" true
    (List.for_all2
       (fun s r -> Value.cmp_sql s r = Some (-1))
       ship receipt)

let test_dates_module () =
  Alcotest.(check string) "add_days" "1993-03-02" (Dates.add_days "1993-02-27" 3);
  Alcotest.(check string) "leap year" "1996-02-29" (Dates.add_days "1996-02-28" 1);
  Alcotest.(check string) "year wrap" "1994-01-01" (Dates.add_days "1993-12-31" 1);
  Alcotest.(check string)
    "roundtrip" "1995-06-17"
    (Dates.to_string (Dates.of_string "1995-06-17"))

(* ------------------------------------------------------------------ *)
(* Plain query execution                                                *)
(* ------------------------------------------------------------------ *)

let run_plain sql =
  let d = Lazy.force db in
  (Perm.run d sql).Perm.relation

let test_queries_run () =
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate ~seed:3 n in
      match run_plain q.Tpch_queries.sql with
      | rel ->
          (* no assertion on cardinality: selective parameters may yield
             empty results, which is fine — the query must just run. *)
          ignore (Relation.cardinality rel)
      | exception e ->
          Alcotest.failf "Q%d failed: %s\n%s" n (Printexc.to_string e)
            q.Tpch_queries.sql)
    Tpch_queries.numbers

let test_q4_nonempty () =
  (* Q4 with a 90-day window over 6.5 years of orders is essentially
     always non-empty at sf 0.04. *)
  let q = Tpch_queries.instantiate ~seed:1 4 in
  Alcotest.(check bool)
    "q4 non-empty" true
    (Relation.cardinality (run_plain q.Tpch_queries.sql) > 0)

let test_correlation_classification () =
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate n in
      Alcotest.(check bool)
        (Printf.sprintf "Q%d correlation flag" n)
        (not (List.mem n Tpch_queries.uncorrelated_numbers))
        q.Tpch_queries.correlated)
    Tpch_queries.numbers

(* ------------------------------------------------------------------ *)
(* Provenance at tiny scale                                             *)
(* ------------------------------------------------------------------ *)

let tiny_db = lazy (Tpch_gen.generate ~seed:11 ~sf:0.01 ())

let run_prov ?strategy sql =
  let d = Lazy.force tiny_db in
  Perm.run d ?strategy sql

let test_provenance_gen_all_queries () =
  (* The Gen strategy must rewrite and evaluate every query. Q2's
     CrossBase spans four relations, so even sf 0.01 is the practical
     limit here — which is the paper's point about Gen. *)
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate ~seed:5 n in
      let sql = Tpch_queries.with_provenance q in
      match run_prov sql with
      | result ->
          let prov_cols =
            List.length (Pschema.cols result.Perm.provenance)
          in
          Alcotest.(check bool)
            (Printf.sprintf "Q%d has provenance columns" n)
            true (prov_cols > 0)
      | exception e ->
          Alcotest.failf "Q%d provenance failed: %s" n (Printexc.to_string e))
    [ 4; 11; 15; 16; 17; 20; 22 ]

let test_provenance_q2_q21 () =
  (* The two heaviest Gen rewrites, kept separate so a slow run is
     attributable. *)
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate ~seed:5 n in
      match run_prov (Tpch_queries.with_provenance q) with
      | result -> ignore (Relation.cardinality result.Perm.relation)
      | exception e ->
          Alcotest.failf "Q%d provenance failed: %s" n (Printexc.to_string e))
    [ 2; 21 ]

let test_result_preservation_tpch () =
  (* Theorem 4 on real queries: distinct original columns of q+ equal
     the distinct rows of q. *)
  let d = Lazy.force tiny_db in
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate ~seed:5 n in
      let plain = (Perm.run d q.Tpch_queries.sql).Perm.relation in
      let prov = (Perm.run d (Tpch_queries.with_provenance q)).Perm.relation in
      let orig_names = Schema.names (Relation.schema plain) in
      let stripped =
        Eval.query d
          (Algebra.project ~distinct:true
             (List.map (fun nm -> (Algebra.attr nm, nm)) orig_names)
             (Algebra.TableExpr prov))
      in
      let plain_distinct =
        Eval.query d
          (Algebra.project ~distinct:true
             (List.map (fun nm -> (Algebra.attr nm, nm)) orig_names)
             (Algebra.TableExpr plain))
      in
      if not (Relation.equal_set stripped plain_distinct) then
        Alcotest.failf "Q%d: provenance result does not preserve the original" n)
    [ 4; 11; 15; 16; 17; 20; 22 ]

let test_uncorrelated_strategies_agree () =
  let d = Lazy.force tiny_db in
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate ~seed:5 n in
      let sql = Tpch_queries.with_provenance q in
      let gen = (Perm.run d ~strategy:Strategy.Gen sql).Perm.relation in
      let left = (Perm.run d ~strategy:Strategy.Left sql).Perm.relation in
      let move = (Perm.run d ~strategy:Strategy.Move sql).Perm.relation in
      if not (Relation.equal_set gen left) then
        Alcotest.failf "Q%d: Left disagrees with Gen" n;
      if not (Relation.equal_set gen move) then
        Alcotest.failf "Q%d: Move disagrees with Gen" n)
    Tpch_queries.uncorrelated_numbers

let test_correlated_strategies_rejected () =
  let d = Lazy.force tiny_db in
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate ~seed:5 n in
      let sql = Tpch_queries.with_provenance q in
      match Perm.run d ~strategy:Strategy.Left sql with
      | exception
          Resilience.Perm_error { e_detail = Resilience.Unsupported _; _ } ->
          ()
      | _ -> Alcotest.failf "Q%d: Left should be inapplicable" n)
    [ 2; 17; 20; 21 ]

(* ------------------------------------------------------------------ *)
(* Standard (sublink-free) queries                                      *)
(* ------------------------------------------------------------------ *)

let test_standard_queries_run () =
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate_standard ~seed:3 n in
      match run_plain q.Tpch_queries.sql with
      | rel -> ignore (Relation.cardinality rel)
      | exception e ->
          Alcotest.failf "standard Q%d failed: %s\n%s" n (Printexc.to_string e)
            q.Tpch_queries.sql)
    Tpch_queries.standard_numbers

let test_q1_shape () =
  (* Q1 groups by (returnflag, linestatus): at most 6 groups with our
     generator's 3 x 2 domains, never zero at sf 0.04 *)
  let q = Tpch_queries.instantiate_standard ~seed:1 1 in
  let rel = run_plain q.Tpch_queries.sql in
  let n = Relation.cardinality rel in
  Alcotest.(check bool) "1..6 groups" true (n >= 1 && n <= 6);
  Alcotest.(check int) "10 columns" 10 (Schema.arity (Relation.schema rel))

let test_standard_provenance () =
  (* no sublinks: the standard rewrite rules must handle all of them *)
  let d = Lazy.force tiny_db in
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate_standard ~seed:3 n in
      let sql = Tpch_queries.with_provenance q in
      match Perm.run d sql with
      | result ->
          Alcotest.(check bool)
            (Printf.sprintf "standard Q%d has provenance columns" n)
            true
            (List.length result.Perm.provenance > 0)
      | exception e ->
          Alcotest.failf "standard Q%d provenance failed: %s" n
            (Printexc.to_string e))
    Tpch_queries.standard_numbers

let test_standard_result_preservation () =
  let d = Lazy.force tiny_db in
  List.iter
    (fun n ->
      let q = Tpch_queries.instantiate_standard ~seed:3 n in
      let plain = (Perm.run d q.Tpch_queries.sql).Perm.relation in
      let prov = (Perm.run d (Tpch_queries.with_provenance q)).Perm.relation in
      let orig_names = Schema.names (Relation.schema plain) in
      let strip rel =
        Eval.query d
          (Algebra.project ~distinct:true
             (List.map (fun nm -> (Algebra.attr nm, nm)) orig_names)
             (Algebra.TableExpr rel))
      in
      if not (Relation.equal_set (strip prov) (strip plain)) then
        Alcotest.failf "standard Q%d: result not preserved" n)
    Tpch_queries.standard_numbers

(* ------------------------------------------------------------------ *)
(* Golden optimized plans                                               *)
(* ------------------------------------------------------------------ *)

(* Every (sublink template, strategy) pair the rewriter accepts, at two
   fixed instantiation seeds: the optimized plan and its per-operator
   estimates must match the files under [golden/] byte for byte, so any
   change to the optimizer or the estimator that moves a plan shows up
   as a diff of those files. On a mismatch the actual output is written
   next to the test binary as [<name>.actual]. *)

let golden_seeds = [ 1; 2 ]

let golden_pairs d =
  List.concat_map
    (fun n ->
      let an =
        Sql_frontend.Analyzer.analyze_string d
          (Tpch_queries.instantiate n).Tpch_queries.sql
      in
      List.filter_map
        (fun s ->
          match Rewrite.rewrite d ~strategy:s an.Sql_frontend.Analyzer.query with
          | _ -> Some (n, s)
          | exception Strategy.Unsupported _ -> None)
        Strategy.all)
    Tpch_queries.numbers

let golden_text d ~seed n s =
  let q = Tpch_queries.instantiate ~seed n in
  let an = Sql_frontend.Analyzer.analyze_string d q.Tpch_queries.sql in
  let q_plus, _ = Rewrite.rewrite d ~strategy:s an.Sql_frontend.Analyzer.query in
  let plan = Optimizer.optimize d q_plus in
  Pp.query_to_string plan ^ "\n\n"
  ^ Estimate.report (Estimate.create d) plan

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let test_golden_plans () =
  let d = Lazy.force tiny_db in
  let pairs = golden_pairs d in
  Alcotest.(check int) "applicable pairs" 17 (List.length pairs);
  let moved =
    List.concat_map
      (fun seed ->
        List.filter_map
          (fun (n, s) ->
            let name =
              Printf.sprintf "q%d_%s_s%d.txt" n (Strategy.to_string s) seed
            in
            let actual = golden_text d ~seed n s in
            let expected =
              match read_file (Filename.concat "golden" name) with
              | t -> Some t
              | exception Sys_error _ -> None
            in
            if expected = Some actual then None
            else begin
              Out_channel.with_open_bin (name ^ ".actual") (fun oc ->
                  output_string oc actual);
              Some name
            end)
          pairs)
      golden_seeds
  in
  if moved <> [] then
    Alcotest.failf "optimized plans differ from golden/: %s"
      (String.concat ", " moved)

(* ------------------------------------------------------------------ *)
(* Optimizer work growth                                                *)
(* ------------------------------------------------------------------ *)

(* A comma join of [k + 1] copies of [nation] with one join equality
   and one range predicate per level: every level of the left-deep
   product is a pushdown site. Doubling the depth may multiply the
   optimizer's allocation (deterministic, unlike its time) by a small
   factor, never by the exponential blow-up of re-optimizing every
   pushed-into subtree. *)
let nation_chain_sql k =
  let froms = List.init (k + 1) (Printf.sprintf "nation n%d") in
  let conds =
    List.concat
      (List.init k (fun i ->
           [
             Printf.sprintf "n%d.n_regionkey = n%d.n_regionkey" i (i + 1);
             Printf.sprintf "n%d.n_nationkey > %d" (i + 1) i;
           ]))
  in
  Printf.sprintf "SELECT n0.n_name FROM %s WHERE %s"
    (String.concat ", " froms)
    (String.concat " AND " conds)

let optimizer_words d k =
  let q =
    (Sql_frontend.Analyzer.analyze_string d (nation_chain_sql k))
      .Sql_frontend.Analyzer.query
  in
  (* the first run also fills the statistics cache *)
  ignore (Optimizer.optimize d q);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Optimizer.optimize d q));
  Gc.minor_words () -. w0

let test_optimizer_work_growth () =
  let d = Lazy.force tiny_db in
  let w6 = optimizer_words d 6 and w12 = optimizer_words d 12 in
  if w12 /. w6 > 4.0 then
    Alcotest.failf "optimizer words grew %.1fx from k=6 (%.0f) to k=12 (%.0f)"
      (w12 /. w6) w6 w12

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tpch"
    [
      ( "generator",
        [
          tc "cardinalities" `Quick test_cardinalities;
          tc "determinism" `Quick test_determinism;
          tc "referential integrity" `Quick test_referential_integrity;
          tc "date sanity" `Quick test_date_sanity;
          tc "dates module" `Quick test_dates_module;
        ] );
      ( "queries",
        [
          tc "all nine run" `Quick test_queries_run;
          tc "q4 non-empty" `Quick test_q4_nonempty;
          tc "correlation classification" `Quick test_correlation_classification;
        ] );
      ( "standard-queries",
        [
          tc "all eight run" `Quick test_standard_queries_run;
          tc "q1 shape" `Quick test_q1_shape;
          tc "provenance via R1-R5" `Slow test_standard_provenance;
          tc "result preservation" `Slow test_standard_result_preservation;
        ] );
      ( "provenance",
        [
          tc "Gen on light queries" `Slow test_provenance_gen_all_queries;
          tc "Gen on Q2/Q21" `Slow test_provenance_q2_q21;
          tc "result preservation" `Slow test_result_preservation_tpch;
          tc "uncorrelated strategies agree" `Slow test_uncorrelated_strategies_agree;
          tc "correlated rejected by Left" `Quick test_correlated_strategies_rejected;
        ] );
      ( "optimizer",
        [
          tc "golden plans and estimates" `Quick test_golden_plans;
          tc "work growth" `Quick test_optimizer_work_growth;
        ] );
    ]
