(* Plan rendering, used by EXPLAIN and by tests that assert tree shapes
   (the paper's Figures 2, 3, 5, 6, 7). *)

open Algebra

let agg_to_string (a : agg) =
  let body =
    match agg_input_expr a.fn with
    | None -> agg_name a.fn
    | Some e -> Printf.sprintf "%s(%s)" (agg_name a.fn) (Expr.to_string e)
  in
  Format.asprintf "%a:=%s" Col.pp a.out body

let cols_to_string cols = String.concat "," (List.map (Format.asprintf "%a" Col.pp) cols)

let label (o : op) : string =
  match o with
  | TableScan { table; _ } -> Printf.sprintf "Scan(%s)" table
  | ConstTable { rows; _ } -> Printf.sprintf "Const(%d rows)" (List.length rows)
  | CseScan { id; _ } -> Printf.sprintf "CseScan(%s)" id
  | SegmentHole _ -> "S"
  | Select (p, _) -> Printf.sprintf "Select[%s]" (Expr.to_string p)
  | Project (ps, _) ->
      let item p =
        match p.expr with
        | ColRef c when Col.equal c p.out -> Format.asprintf "%a" Col.pp c
        | e -> Format.asprintf "%a:=%s" Col.pp p.out (Expr.to_string e)
      in
      Printf.sprintf "Project[%s]" (String.concat "," (List.map item ps))
  | Join { kind; pred; _ } ->
      Printf.sprintf "Join(%s)[%s]" (join_kind_name kind) (Expr.to_string pred)
  | Apply { kind; pred; _ } ->
      if is_true_const pred then Printf.sprintf "Apply(%s)" (join_kind_name kind)
      else Printf.sprintf "Apply(%s)[%s]" (join_kind_name kind) (Expr.to_string pred)
  | SegmentApply { seg_cols; _ } ->
      Printf.sprintf "SegmentApply[%s]" (cols_to_string seg_cols)
  | GroupBy { keys; aggs; _ } ->
      Printf.sprintf "GroupBy[%s][%s]" (cols_to_string keys)
        (String.concat "," (List.map agg_to_string aggs))
  | LocalGroupBy { keys; aggs; _ } ->
      Printf.sprintf "LocalGroupBy[%s][%s]" (cols_to_string keys)
        (String.concat "," (List.map agg_to_string aggs))
  | ScalarAgg { aggs; _ } ->
      Printf.sprintf "ScalarAgg[%s]" (String.concat "," (List.map agg_to_string aggs))
  | UnionAll _ -> "UnionAll"
  | Except _ -> "Except"
  | Max1row _ -> "Max1row"
  | Rownum { out; _ } -> Format.asprintf "Rownum[%a]" Col.pp out

let to_string (o : op) : string =
  let buf = Buffer.create 256 in
  let rec go indent o =
    Buffer.add_string buf indent;
    Buffer.add_string buf (label o);
    Buffer.add_char buf '\n';
    List.iter (go (indent ^ "  ")) (Op.children o)
  in
  go "" o;
  Buffer.contents buf

(* A shape-only rendering with no column ids, for tests that should be
   robust against id numbering. *)
let shape (o : op) : string =
  let rec go o =
    let head =
      match o with
      | TableScan { table; _ } -> "scan:" ^ table
      | CseScan { id; _ } -> "csescan:" ^ id
      | Join { kind; _ } -> "join:" ^ join_kind_name kind
      | Apply { kind; _ } -> "apply:" ^ join_kind_name kind
      | o -> Op.name o
    in
    match Op.children o with
    | [] -> head
    | cs -> Printf.sprintf "%s(%s)" head (String.concat "," (List.map go cs))
  in
  go o
