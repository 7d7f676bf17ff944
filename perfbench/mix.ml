(* The statements each workload sends, generated from the run seed. The
   program under test only ever sees this SQL and the generated
   databases. *)

open Relalg
open Core
module Q = Tpch.Tpch_queries

type stmt = {
  pair : string;  (** (query, strategy) identity, e.g. ["Q16/left"] *)
  group : string;
      (** instantiation identity: statements of one group differ only
          in strategy, so their original columns must agree *)
  strategy : Strategy.t;
  db : Database.t;
  sql : string;
}

let mix_seed ~seed parts = Hashtbl.hash (seed :: parts) land 0x3fffffff

(* Passes numbered from here on belong to the open loop's stream. *)
let open_first_pass = 1_000_000

(* ------------------------------------------------------------------ *)
(* plan-heavy: TPC-H sf 0.01, every applicable strategy                *)
(* ------------------------------------------------------------------ *)

let plan_sf = 0.01

let pair_name n s = Printf.sprintf "Q%d/%s" n (Strategy.to_string s)

(* Every (template, strategy) pair, split into those whose rewrite the
   strategy accepts and those it refuses, named with the refusal's
   reason. Applicability is structural, so one instantiation decides it
   for every parameterization of a template. *)
let pairs db =
  let tried =
    List.concat_map
      (fun n ->
        let an = Sql_frontend.Analyzer.analyze_string db (Q.instantiate n).Q.sql in
        List.map
          (fun s ->
            match Rewrite.rewrite db ~strategy:s an.Sql_frontend.Analyzer.query with
            | _ -> ((n, s), None)
            | exception Strategy.Unsupported why ->
                (* the reason without the offending sublink's plan *)
                ((n, s), Some (List.hd (String.split_on_char '(' why) |> String.trim)))
          Strategy.all)
      Q.numbers
  in
  ( List.filter_map (fun (p, why) -> if why = None then Some p else None) tried,
    List.filter_map (fun ((n, s), why) -> Option.map (fun w -> (pair_name n s, w)) why) tried )

(* Pass [p] draws fresh parameters for every template; all strategies
   of one template share them. *)
let plan_pass ~seed db pairs p =
  List.map
    (fun (n, s) ->
      let iseed = mix_seed ~seed [ p; n ] in
      {
        pair = pair_name n s;
        group = Printf.sprintf "Q%d#%d" n iseed;
        strategy = s;
        db;
        sql = Q.with_provenance (Q.instantiate ~seed:iseed n);
      })
    pairs

(* ------------------------------------------------------------------ *)
(* Served mixes                                                        *)
(* ------------------------------------------------------------------ *)

let serve_sf = 0.01

(* Session strategies, one per connection: Gen answers everything
   directly; Left exercises the fallback ladder on correlated
   templates. *)
let session_strategies = Strategy.[ Gen; Left ]

(* The reads serve-ddl's session scripts draw from, in turn: the nine
   sublink templates at eight seeds with PROVENANCE, plus the standard
   TPC-H queries as plain SQL. The heaviest reads make the tail of the
   latency, so the pool is large enough that its 99th percentile does
   not rest on two or three statements. *)
let read_pool ~seed =
  let templ =
    List.concat_map
      (fun k ->
        List.map
          (fun n -> Q.with_provenance (Q.instantiate ~seed:(mix_seed ~seed [ k; n ]) n))
          Q.numbers)
      (List.init 8 succ)
  in
  let std =
    List.map (fun n -> (Q.instantiate_standard ~seed:(mix_seed ~seed [ 0; n ]) n).Q.sql) Q.standard_numbers
  in
  templ @ std

(* serve-ddl: one session script per connection and iteration; [slice]
   picks one of four seeded one-year order-date windows. The queries
   keep their provenance small (a handful of witnesses per result row):
   a reply larger than the protocol's 1 MiB frame limit is refused by
   the client, which then retries the statement in a fresh session. *)
let ddl_slices ~seed =
  List.init 4 (fun k ->
      let st = Random.State.make [| seed; k |] in
      let y = 1992 + Random.State.int st 6 and m = 1 + Random.State.int st 12 in
      (Printf.sprintf "%d-%02d-01" y m, Printf.sprintf "%d-%02d-01" (y + 1) m))

type ddl_kind = Create_table | Create_view | Query_after_ddl | Query | Drop

(* One session script over the order-date window [(d1, d2)], without
   its reads: the statements before them and the drops after them. *)
let ddl_script ~conn (d1, d2) =
  let t = Printf.sprintf "pb_t%d" conn and v = Printf.sprintf "pb_v%d" conn in
  ( [
    ( Create_table,
      Printf.sprintf
        "CREATE TABLE %s AS SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, \
         l_extendedprice, o_custkey, o_orderpriority FROM lineitem, orders WHERE l_orderkey = \
         o_orderkey AND o_orderdate >= '%s' AND o_orderdate < '%s'"
        t d1 d2 );
    ( Create_view,
      Printf.sprintf
        "CREATE VIEW %s AS SELECT PROVENANCE l_orderkey, l_quantity FROM %s WHERE l_partkey IN \
         (SELECT p_partkey FROM part WHERE p_size < 25)"
        v t );
    ( Query_after_ddl,
      Printf.sprintf
        "SELECT PROVENANCE p_partkey, p_size FROM part WHERE p_partkey IN (SELECT l_partkey FROM \
         %s WHERE l_quantity > 40)"
        t );
    ( Query,
      Printf.sprintf
        "SELECT PROVENANCE l_orderkey, l_extendedprice FROM %s WHERE EXISTS (SELECT * FROM \
         supplier WHERE s_suppkey = l_suppkey AND s_acctbal > 0)"
        t );
    (Query, Printf.sprintf "SELECT * FROM %s WHERE l_quantity > 20" v);
    ],
    [ (Drop, "DROP VIEW " ^ v); (Drop, "DROP TABLE " ^ t) ] )

(* Reads of [read_pool] between the two halves of a script. *)
let reads_per_script = 2
let ddl_script_len = 9

(* Connection 0 sends [Load_snapshot "tpch"] after every
   [swap_every]-th script, swapping the epoch under both sessions. *)
let swap_every = 3
