(* Operations over relational operator trees: output schema, free
   (outer) references, traversal, cloning with fresh column ids. *)

open Algebra

(* ------------------------------------------------------------------ *)
(* Output schema (ordered column list).                               *)
(* ------------------------------------------------------------------ *)

let rec schema (o : op) : Col.t list =
  match o with
  | TableScan { cols; _ } | ConstTable { cols; _ } | SegmentHole { cols; _ }
  | CseScan { cols; _ } ->
      cols
  | Select (_, i) | Max1row i -> schema i
  | Project (projs, _) -> List.map (fun p -> p.out) projs
  | Join { kind; left; right; _ } | Apply { kind; left; right; _ } -> (
      match kind with
      | Semi | Anti -> schema left
      | Inner | LeftOuter -> schema left @ schema right)
  | SegmentApply { outer; inner; _ } -> schema outer @ schema inner
  | GroupBy { keys; aggs; _ } | LocalGroupBy { keys; aggs; _ } ->
      keys @ List.map (fun (a : agg) -> a.out) aggs
  | ScalarAgg { aggs; _ } -> List.map (fun (a : agg) -> a.out) aggs
  | UnionAll (l, _) | Except (l, _) -> schema l
  | Rownum { out; input } -> schema input @ [ out ]

let schema_set o = Col.Set.of_list (schema o)

(* ------------------------------------------------------------------ *)
(* Children and reconstruction.                                       *)
(* ------------------------------------------------------------------ *)

let children = function
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ -> []
  | Select (_, i) | Project (_, i) | Max1row i -> [ i ]
  | GroupBy { input; _ } | LocalGroupBy { input; _ } | ScalarAgg { input; _ }
  | Rownum { input; _ } ->
      [ input ]
  | Join { left; right; _ } | Apply { left; right; _ } -> [ left; right ]
  | SegmentApply { outer; inner; _ } -> [ outer; inner ]
  | UnionAll (l, r) | Except (l, r) -> [ l; r ]

let with_children o cs =
  match o, cs with
  | (TableScan _ | ConstTable _ | SegmentHole _ | CseScan _), [] -> o
  | Select (p, _), [ i ] -> Select (p, i)
  | Project (ps, _), [ i ] -> Project (ps, i)
  | Max1row _, [ i ] -> Max1row i
  | GroupBy g, [ i ] -> GroupBy { g with input = i }
  | LocalGroupBy g, [ i ] -> LocalGroupBy { g with input = i }
  | ScalarAgg g, [ i ] -> ScalarAgg { g with input = i }
  | Rownum r, [ i ] -> Rownum { r with input = i }
  | Join j, [ l; r ] -> Join { j with left = l; right = r }
  | Apply a, [ l; r ] -> Apply { a with left = l; right = r }
  | SegmentApply s, [ o'; i ] -> SegmentApply { s with outer = o'; inner = i }
  | UnionAll _, [ l; r ] -> UnionAll (l, r)
  | Except _, [ l; r ] -> Except (l, r)
  | _ -> invalid_arg "Op.with_children: arity mismatch"

(* The operator's constructor, lower-case (for renderings). *)
let name = function
  | TableScan _ -> "scan"
  | ConstTable _ -> "const"
  | CseScan _ -> "csescan"
  | SegmentHole _ -> "hole"
  | Select _ -> "select"
  | Project _ -> "project"
  | Join _ -> "join"
  | Apply _ -> "apply"
  | SegmentApply _ -> "segmentapply"
  | GroupBy _ -> "groupby"
  | LocalGroupBy _ -> "localgroupby"
  | ScalarAgg _ -> "scalaragg"
  | UnionAll _ -> "unionall"
  | Except _ -> "except"
  | Max1row _ -> "max1row"
  | Rownum _ -> "rownum"

(* The scalar expressions attached directly to an operator (not those of
   its children). *)
let local_exprs = function
  | Select (p, _) -> [ p ]
  | Project (ps, _) -> List.map (fun p -> p.expr) ps
  | Join { pred; _ } | Apply { pred; _ } -> [ pred ]
  | GroupBy { aggs; _ } | LocalGroupBy { aggs; _ } | ScalarAgg { aggs; _ } ->
      List.filter_map (fun a -> agg_input_expr a.fn) aggs
  | TableScan _ | ConstTable _ | SegmentHole _ | CseScan _ | SegmentApply _
  | UnionAll _ | Except _ | Max1row _ | Rownum _ ->
      []

(* ------------------------------------------------------------------ *)
(* Free (outer) references.                                           *)
(*                                                                    *)
(* The set of columns used in a subtree but not produced by it: the   *)
(* correlation of the paper.  Subquery scalar children contribute     *)
(* their own free refs.                                               *)
(* ------------------------------------------------------------------ *)

let rec free_cols (o : op) : Col.Set.t =
  let expr_free acc e =
    Expr.fold_cols
      ~on_op:(fun acc q -> Col.Set.union acc (free_cols q))
      (fun s c -> Col.Set.add c s)
      acc e
  in
  let local = List.fold_left expr_free Col.Set.empty (local_exprs o) in
  let from_children =
    List.fold_left (fun acc c -> Col.Set.union acc (free_cols c)) Col.Set.empty
      (children o)
  in
  let produced_below =
    List.fold_left (fun acc c -> Col.Set.union acc (schema_set c)) Col.Set.empty
      (children o)
  in
  (* A SegmentHole's columns are bound by the enclosing SegmentApply's
     outer side, through [src]. *)
  let hole_srcs =
    match o with
    | SegmentHole { src; _ } -> Col.Set.of_list src
    | _ -> Col.Set.empty
  in
  Col.Set.union hole_srcs
    (Col.Set.diff (Col.Set.union local from_children) produced_below)
  |> fun s ->
  match o with
  | SegmentApply { outer; _ } ->
      (* inner's references to outer's columns are bound here *)
      Col.Set.diff s (schema_set outer)
  | _ -> s

(* [correlated_with inner left]: does [inner] reference columns produced
   by [left]?  The test of identities (1)/(2). *)
let correlated_with (inner : op) (left : op) =
  not (Col.Set.is_empty (Col.Set.inter (free_cols inner) (schema_set left)))

let uses_cols (o : op) (cols : Col.Set.t) =
  not (Col.Set.is_empty (Col.Set.inter (free_cols o) cols))

(* ------------------------------------------------------------------ *)
(* Renaming and cloning.                                              *)
(* ------------------------------------------------------------------ *)

let rec rename (m : Col.t Col.IdMap.t) (o : op) : op =
  let rc c = match Col.IdMap.find_opt c.Col.id m with Some c' -> c' | None -> c in
  let re e = Expr.rename ~map_op:rename m e in
  let ragg a =
    match agg_input_expr a.fn with
    | None -> { a with out = rc a.out }
    | Some e -> { fn = agg_with_input a.fn (re e); out = rc a.out }
  in
  match o with
  | TableScan t -> TableScan { t with cols = List.map rc t.cols }
  | ConstTable t -> ConstTable { t with cols = List.map rc t.cols }
  | CseScan c -> CseScan { c with cols = List.map rc c.cols }
  | SegmentHole h -> SegmentHole { cols = List.map rc h.cols; src = List.map rc h.src }
  | Select (p, i) -> Select (re p, rename m i)
  | Project (ps, i) ->
      Project (List.map (fun p -> { expr = re p.expr; out = rc p.out }) ps, rename m i)
  | Max1row i -> Max1row (rename m i)
  | GroupBy g ->
      GroupBy
        { keys = List.map rc g.keys; aggs = List.map ragg g.aggs; input = rename m g.input }
  | LocalGroupBy g ->
      LocalGroupBy
        { keys = List.map rc g.keys; aggs = List.map ragg g.aggs; input = rename m g.input }
  | ScalarAgg g -> ScalarAgg { aggs = List.map ragg g.aggs; input = rename m g.input }
  | Rownum r -> Rownum { out = rc r.out; input = rename m r.input }
  | Join j -> Join { j with pred = re j.pred; left = rename m j.left; right = rename m j.right }
  | Apply a ->
      Apply { a with pred = re a.pred; left = rename m a.left; right = rename m a.right }
  | SegmentApply s ->
      SegmentApply
        { seg_cols = List.map rc s.seg_cols;
          outer = rename m s.outer;
          inner = rename m s.inner
        }
  | UnionAll (l, r) -> UnionAll (rename m l, rename m r)
  | Except (l, r) -> Except (rename m l, rename m r)

(* Every column produced by a node of the subtree — scan, constant,
   CSE and hole columns, projection, aggregate and row-number outputs —
   in a fixed structural order (the same for any two trees of the same
   shape); [subqueries] also walks the bodies of subquery-bearing
   expressions. *)
let produced_cols ?(subqueries = false) (o : op) : Col.t list =
  let rec produced acc o =
    let acc =
      match o with
      | TableScan { cols; _ } | ConstTable { cols; _ } | CseScan { cols; _ }
      | SegmentHole { cols; _ } ->
          cols @ acc
      | Project (ps, _) -> List.map (fun p -> p.out) ps @ acc
      | GroupBy { aggs; _ } | LocalGroupBy { aggs; _ } | ScalarAgg { aggs; _ } ->
          List.map (fun (a : agg) -> a.out) aggs @ acc
      | Rownum { out; _ } -> out :: acc
      | _ -> acc
    in
    let acc =
      if subqueries then
        List.fold_left
          (Expr.fold_cols ~on_op:produced (fun acc _ -> acc))
          acc (local_exprs o)
      else acc
    in
    List.fold_left produced acc (children o)
  in
  produced [] o

(* Deep copy with fresh ids for every column *produced inside* the
   subtree; free (outer) references are left untouched.  Returns the
   clone plus the mapping old-output-col -> new-output-col, which the
   caller uses to fix up references above.  Required by the identities
   that duplicate a subexpression — (5), (6), (7) — and by SegmentApply
   introduction. *)
let clone_fresh (o : op) : op * Col.t Col.IdMap.t =
  let m =
    List.fold_left
      (fun m c -> Col.IdMap.add c.Col.id (Col.clone c) m)
      Col.IdMap.empty (produced_cols o)
  in
  (rename m o, m)

(* ------------------------------------------------------------------ *)
(* Plan identity: equality up to renaming of produced columns.        *)
(*                                                                    *)
(* The one alpha-equivalence key of the system: the search memo       *)
(* deduplicates alternatives by it, the CSE store names shared        *)
(* subplans by it, and [iso] (SegmentApply introduction, Section      *)
(* 3.4.1) compares two instances of an expression by it.  Columns     *)
(* produced inside the tree are numbered by first occurrence in       *)
(* [produced_cols] and their types are appended; free (outer)         *)
(* references are written by raw id.  Constants are exact (floats as  *)
(* %h, strings quoted); scan column lists, constant rows, CSE ids and *)
(* subquery bodies are part of the key; column names are not.         *)
(* ------------------------------------------------------------------ *)

let ty_code : Value.ty -> char = function
  | TInt -> 'i'
  | TFloat -> 'f'
  | TStr -> 's'
  | TBool -> 'b'
  | TDate -> 'd'

let cmp_tag = function Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let fingerprint (o : op) : string =
  let num : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let types = Buffer.create 32 in
  List.iter
    (fun (c : Col.t) ->
      if not (Hashtbl.mem num c.id) then begin
        Hashtbl.add num c.id (Hashtbl.length num);
        Buffer.add_char types (ty_code c.ty)
      end)
    (produced_cols ~subqueries:true o);
  let b = Buffer.create 256 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let int n = str (string_of_int n) in
  let quoted s =
    chr '"';
    str (String.escaped s);
    chr '"'
  in
  (* a compound term is "(tag arg ...)", one space before each argument *)
  let term tag args =
    chr '(';
    str tag;
    args ();
    chr ')'
  in
  let arg f x =
    chr ' ';
    f x
  in
  let col (c : Col.t) =
    match Hashtbl.find_opt num c.id with
    | Some n ->
        chr '#';
        int n
    | None ->
        chr '$';
        int c.id
  in
  let cols cs = term "cols" (fun () -> List.iter (arg col) cs) in
  let value : Value.t -> unit = function
    | Null -> str "null"
    | Int n ->
        chr 'i';
        int n
    | Float f -> str (Printf.sprintf "f%h" f)
    | Str s -> quoted s
    | Bool x -> str (if x then "true" else "false")
    | Date d ->
        chr 'd';
        int d
  in
  let rec expr = function
    | ColRef c -> col c
    | Const v -> value v
    | Arith (o, x, y) ->
        exprs (match o with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%") [ x; y ]
    | Cmp (o, x, y) -> exprs (cmp_tag o) [ x; y ]
    | And (x, y) -> exprs "and" [ x; y ]
    | Or (x, y) -> exprs "or" [ x; y ]
    | Not x -> exprs "not" [ x ]
    | IsNull x -> exprs "isnull" [ x ]
    | Like (x, p) ->
        term "like" (fun () ->
            arg expr x;
            arg quoted p)
    | Case (branches, els) ->
        (* an odd argument count means an ELSE *)
        exprs "case" (List.concat_map (fun (c, v) -> [ c; v ]) branches @ Option.to_list els)
    | Subquery q -> sub "sub" [] q
    | Exists q -> sub "exists" [] q
    | InSub (x, q) -> sub "in" [ x ] q
    | QuantCmp (c, q, x, s) -> sub ((match q with Any -> "any" | All -> "all") ^ cmp_tag c) [ x ] s
  and exprs tag es = term tag (fun () -> List.iter (arg expr) es)
  and sub tag es q =
    term tag (fun () ->
        List.iter (arg expr) es;
        arg op q)
  and aggs l =
    term "aggs" (fun () ->
        List.iter
          (fun (a : agg) ->
            arg (term (agg_name a.fn)) (fun () ->
                Option.iter (arg expr) (agg_input_expr a.fn);
                arg col a.out))
          l)
  and op o =
    term (name o) (fun () ->
        (match o with
        | TableScan { table; cols = cs } | CseScan { id = table; cols = cs; _ } ->
            arg str table;
            arg cols cs
        | ConstTable { cols = cs; rows } ->
            arg cols cs;
            List.iter (fun r -> arg (term "row") (fun () -> Array.iter (arg value) r)) rows
        | SegmentHole { cols = cs; src } ->
            arg cols cs;
            arg cols src
        | Select (p, _) -> arg expr p
        | Project (ps, _) ->
            List.iter
              (fun p ->
                arg expr p.expr;
                str "->";
                col p.out)
              ps
        | Join { kind; pred; _ } | Apply { kind; pred; _ } ->
            arg str (join_kind_name kind);
            arg expr pred
        | SegmentApply { seg_cols; _ } -> arg cols seg_cols
        | GroupBy { keys; aggs = l; _ } | LocalGroupBy { keys; aggs = l; _ } ->
            arg cols keys;
            arg aggs l
        | ScalarAgg { aggs = l; _ } -> arg aggs l
        | Rownum { out; _ } -> arg col out
        | UnionAll _ | Except _ | Max1row _ -> ());
        List.iter (arg op) (children o))
  in
  op o;
  chr '|';
  Buffer.add_buffer b types;
  Buffer.contents b

let rec exists_op (pred : op -> bool) (o : op) : bool =
  pred o || List.exists (exists_op pred) (children o)

(* Structural isomorphism up to column renaming (Section 3.4.1: "two
   instances of an expression connected by a join"): equal
   fingerprints, with the bijection a's column -> b's column read off
   the two produced-column lists positionally.  Limited to the shapes
   SegmentApply introduction compares: no SegmentApply/SegmentHole and
   no subquery-bearing expression.  The search calls it on every join,
   almost always on trees of different shape, so a lockstep walk of
   operator names rejects those before either side is fingerprinted. *)
let iso (a : op) (b : op) : Col.t Col.IdMap.t option =
  let unsupported o =
    (match o with SegmentApply _ | SegmentHole _ -> true | _ -> false)
    || List.exists Expr.has_subquery (local_exprs o)
  in
  let rec same_shape a b =
    name a = name b
    && (let ca = children a and cb = children b in
        List.compare_lengths ca cb = 0 && List.for_all2 same_shape ca cb)
  in
  if (not (same_shape a b)) || exists_op unsupported a || fingerprint a <> fingerprint b
  then None
  else
    Some
      (List.fold_left2
         (fun m (ca : Col.t) cb -> Col.IdMap.add ca.id cb m)
         Col.IdMap.empty (produced_cols a) (produced_cols b))

(* Generic bottom-up rewrite. *)
let rec map_bottom_up (f : op -> op) (o : op) : op =
  f (with_children o (List.map (map_bottom_up f) (children o)))

let count_ops (o : op) : int =
  let rec go acc o = List.fold_left go (acc + 1) (children o) in
  go 0 o
