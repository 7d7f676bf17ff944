(** Scope analysis: output attribute names of a query and the free
    (correlated) attribute references of a query or expression.

    A name is free in a sublink query when it does not resolve against
    any scope created inside the sublink — it must be bound by an
    enclosing operator, i.e. it is a correlation (Section 2.2). The
    evaluator uses the free-name set as the memoization key for sublink
    results ("hashed subplan"). *)

open Algebra

module S = Set.Make (String)

(** Output attribute names of [q] (no type information needed). *)
let rec out_names db (q : query) : string list =
  match q with
  | Base name -> Schema.names (Relation.schema (Database.find db name))
  | TableExpr rel -> Schema.names (Relation.schema rel)
  | Select (_, input) | Order (_, input) | Limit (_, input) -> out_names db input
  | Project { cols; _ } -> List.map snd cols
  | Cross (a, b) | Join (_, a, b) | LeftJoin (_, a, b) ->
      out_names db a @ out_names db b
  | Agg { group_by; aggs; _ } ->
      List.map snd group_by @ List.map (fun c -> c.agg_name) aggs
  | Union (_, a, _) | Inter (_, a, _) | Diff (_, a, _) -> out_names db a

(* Free names are computed bottom-up, once per node. A node's
   scope-free names are the references inside it that no scope created
   inside it binds; under enclosing scopes [L] its free names are
   exactly its scope-free names minus the names of [L]. So a sublink
   contributes its query's scope-free names minus the scope of the
   operator it sits in, and each expression is checked against one
   scope — its operator's input names — instead of a stack of them.
   Output names are lazy: only operators with expressions need their
   input's names, so a missing base relation raises only where a scope
   has to be built from it. *)

type node = { out : string list Lazy.t; free : S.t }

let in_scope scope name = List.exists (String.equal name) scope

(* [expr_free db scope e acc] adds to [acc] the names [e] references
   outside [scope]. *)
let rec expr_free db (scope : string list) (e : expr) (acc : S.t) : S.t =
  let go e acc = expr_free db scope e acc in
  match e with
  | Const _ | TypedNull _ -> acc
  | Attr name -> if in_scope scope name then acc else S.add name acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> go b (go a acc)
  | Not a | IsNull a | Like (a, _) -> go a acc
  | Case (whens, els) ->
      let acc = List.fold_left (fun acc (c, x) -> go x (go c acc)) acc whens in
      Option.fold ~none:acc ~some:(fun e -> go e acc) els
  | InList (a, es) -> List.fold_left (fun acc e -> go e acc) (go a acc) es
  | FunCall (_, es) -> List.fold_left (fun acc e -> go e acc) acc es
  | Sublink s ->
      let acc =
        match s.kind with
        | Exists | Scalar -> acc
        | AnyOp (_, lhs) | AllOp (_, lhs) -> go lhs acc
      in
      S.fold
        (fun n acc -> if in_scope scope n then acc else S.add n acc)
        (facts db s.query).free acc

and facts db (q : query) : node =
  let over (i : node) exprs =
    let scope = Lazy.force i.out in
    List.fold_left (fun acc e -> expr_free db scope e acc) i.free exprs
  in
  match q with
  | Base _ | TableExpr _ -> { out = lazy (out_names db q); free = S.empty }
  | Select (cond, input) ->
      let i = facts db input in
      { out = i.out; free = over i [ cond ] }
  | Project { cols; proj_input; _ } ->
      {
        out = lazy (List.map snd cols);
        free = over (facts db proj_input) (List.map fst cols);
      }
  | Cross (a, b) ->
      let fa = facts db a and fb = facts db b in
      {
        out = lazy (Lazy.force fa.out @ Lazy.force fb.out);
        free = S.union fa.free fb.free;
      }
  | Join (cond, a, b) | LeftJoin (cond, a, b) ->
      let fa = facts db a and fb = facts db b in
      let names = Lazy.force fa.out @ Lazy.force fb.out in
      {
        out = Lazy.from_val names;
        free = expr_free db names cond (S.union fa.free fb.free);
      }
  | Agg { group_by; aggs; agg_input } ->
      {
        out = lazy (List.map snd group_by @ List.map (fun c -> c.agg_name) aggs);
        free =
          over (facts db agg_input)
            (List.map fst group_by @ List.filter_map (fun c -> c.agg_arg) aggs);
      }
  | Union (_, a, b) | Inter (_, a, b) | Diff (_, a, b) ->
      let fa = facts db a and fb = facts db b in
      { out = fa.out; free = S.union fa.free fb.free }
  | Order (keys, input) ->
      let i = facts db input in
      { out = i.out; free = over i (List.map fst keys) }
  | Limit (_, input) -> facts db input

(** Free attribute names of [q]: correlated references that must be
    bound by enclosing scopes. Sorted, duplicate-free. *)
let free_of_query db q = S.elements (facts db q).free

(** Free attribute names of expression [e] under an operator whose input
    schema provides [input_names]. *)
let free_of_expr db input_names e =
  S.elements (expr_free db input_names e S.empty)

(** Names referenced by [e] that are NOT bound by any scope — i.e. with
    no local scope at all. Used by the optimizer to decide pushdown. *)
let refs_of_expr db e = S.elements (expr_free db [] e S.empty)

(** [is_uncorrelated db s] holds when sublink [s] has no correlated
    references — the applicability condition of the Left, Move and Unn
    strategies (Section 3.6). *)
let is_uncorrelated db (s : sublink) = free_of_query db s.query = []

(** [split_equi db ~left ~right cond] classifies each top-level
    conjunct of a join condition as a hashable equi-pair
    [(left_expr, right_expr, null_safe)] — an [=]/[=n] comparison whose
    sides reference only the left/right input respectively — or as a
    residual condition. This is purely syntactic scope analysis, so
    both execution engines share it; the compiled engine runs it once
    per join operator instead of once per evaluation. *)
let split_equi db ~left ~right cond =
  let touches names e =
    List.exists (fun n -> List.mem n names) (refs_of_expr db e)
  in
  List.fold_left
    (fun (pairs, residual) conjunct ->
      match conjunct with
      | Cmp (((Eq | EqNull) as op), e1, e2)
        when (not (has_sublink e1)) && not (has_sublink e2) -> (
          let null_safe = op = EqNull in
          match (touches right e1, touches left e2) with
          | false, false -> (pairs @ [ (e1, e2, null_safe) ], residual)
          | true, true when (not (touches left e1)) && not (touches right e2)
            ->
              (pairs @ [ (e2, e1, null_safe) ], residual)
          | _ -> (pairs, residual @ [ conjunct ]))
      | c -> (pairs, residual @ [ c ]))
    ([], []) (conjuncts cond)
