(* The benchmark's statements: the 8 headline query shapes of
   bench/workloads.ml, with their literals drawn from seeded TPC-H-style
   substitution domains, plus the q17-family batch of BENCH_10.

   The benchmark keeps its own copies of the shapes (and of the
   generator's container list, which Tpch_gen does not export) so that
   what it measures cannot drift when the repository's workload list
   changes.  With the default literals each shape renders to exactly
   the SQL of bench/workloads.ml. *)

(* A drawn statement.  [direct] computes the answer straight from the
   table rows, for the one shape whose decorrelated reference plan is
   too slow to run per table state at SF 0.1 (see [q17_all_parts]). *)
type stmt = { sql : string; direct : (Storage.Database.t -> Relalg.Value.t array list) option }

type t = {
  name : string;
  tables : string list;
      (** base tables the statement reads: its answer can change only
          when one of these is written *)
  draw : Random.State.t -> stmt;  (** draw a literal vector, render the SQL *)
}

let sql s = { sql = s; direct = None }

let pick rng a = a.(Random.State.int rng (Array.length a))

(* [lo], [lo + step], ..., [hi] *)
let grid rng ~lo ~hi ~step = lo + (step * Random.State.int rng (((hi - lo) / step) + 1))

let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]
let type_suffixes = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

(* Tpch_gen's container list *)
let containers =
  [| "SM CASE"; "SM BOX"; "SM PACK"; "SM PKG"; "MED BAG"; "MED BOX"; "MED PKG";
     "MED PACK"; "LG CASE"; "LG BOX"; "LG PACK"; "LG PKG"; "JUMBO BAG"; "JUMBO BOX";
     "JUMBO PACK"; "JUMBO PKG"; "WRAP CASE"; "WRAP BOX"; "WRAP PACK"; "WRAP PKG"
  |]

let brand rng = Printf.sprintf "Brand#%d%d" (1 + Random.State.int rng 5) (1 + Random.State.int rng 5)

(* a factor in hundredths, rendered as SQL: 200 -> "2", 50 -> "0.5",
   175 -> "1.75" *)
let factor_sql hundredths =
  let i = hundredths / 100 and f = hundredths mod 100 in
  if f = 0 then string_of_int i
  else if f mod 10 = 0 then Printf.sprintf "%d.%d" i (f / 10)
  else Printf.sprintf "%d.%02d" i f

let lattice threshold =
  Printf.sprintf
    "select c_custkey from customer where %d < (select sum(o_totalprice) from orders where o_custkey = c_custkey)"
    threshold

let q2 ~size ~suffix ~region =
  Printf.sprintf
    "select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
     from part, supplier, partsupp, nation, region \
     where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
     and p_size = %d and p_type like '%%%s' \
     and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%s' \
     and ps_supplycost = (select min(ps_supplycost) from partsupp, supplier, nation, region \
     where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
     and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%s') \
     order by s_acctbal desc, n_name, s_name, p_partkey limit 100"
    size suffix region region

let q17 ~brand ~container =
  Printf.sprintf
    "select sum(l_extendedprice) / 7.0 as avg_yearly \
     from lineitem, part \
     where p_partkey = l_partkey and p_brand = '%s' and p_container = '%s' \
     and l_quantity < (select 0.2 * avg(l_quantity) from lineitem l2 \
     where l2.l_partkey = part.p_partkey)"
    brand container

let q17_all_parts factor =
  Printf.sprintf
    "select sum(l_extendedprice) / 7.0 as avg_yearly \
     from lineitem, part \
     where p_partkey = l_partkey \
     and l_quantity < (select %s * avg(l_quantity) from lineitem l2 \
     where l2.l_partkey = part.p_partkey)"
    (factor_sql factor)

(* q17-all-parts evaluated directly over the rows: its decorrelated
   reference plan joins lineitem to itself through part and groups on
   every column (~4 s per run at SF 0.1), which is too slow to repeat
   after every lineitem write.  Quantities are small integers, so the
   per-part average is exact and the comparison matches SQL's. *)
let q17_all_parts_direct factor (db : Storage.Database.t) : Relalg.Value.t array list =
  let open Relalg.Value in
  let f = float_of_string (factor_sql factor) in
  let rows tbl =
    let a, n = Storage.Table.rows_view (Storage.Database.table db tbl) in
    Array.sub a 0 n
  in
  let parts = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace parts r.(0) ()) (rows "part");
  let lines = rows "lineitem" in
  let qty = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      match (r.(4), Hashtbl.find_opt qty r.(1)) with
      | Float q, Some (s, n) -> Hashtbl.replace qty r.(1) (s +. q, n + 1)
      | Float q, None -> Hashtbl.replace qty r.(1) (q, 1)
      | _ -> ())
    lines;
  let total = ref None in
  Array.iter
    (fun r ->
      match (r.(4), r.(5), Hashtbl.find_opt qty r.(1)) with
      | Float q, Float price, Some (s, n)
        when Hashtbl.mem parts r.(1) && q < f *. (s /. float_of_int n) ->
          total := Some (Option.value ~default:0.0 !total +. price)
      | _ -> ())
    lines;
  [ [| (match !total with Some t -> Float (t /. 7.0) | None -> Null) |] ]

let revenue =
  "select n_name, sum(l_extendedprice) as revenue, count(*) as lines \
   from nation, supplier, lineitem \
   where s_nationkey = n_nationkey and l_suppkey = s_suppkey \
   group by n_name order by n_name"

let exists threshold =
  Printf.sprintf
    "select s_name from supplier where exists \
     (select ps_suppkey from partsupp where ps_suppkey = s_suppkey and ps_availqty > %d) \
     order by s_name"
    threshold

let big_orders factor =
  Printf.sprintf
    "select o_orderkey, o_totalprice from orders \
     where o_totalprice > (select %s * avg(o2.o_totalprice) from orders o2 \
     where o2.o_custkey = orders.o_custkey) \
     order by o_totalprice desc limit 20"
    (factor_sql factor)

let inactive =
  "select c_custkey from customer \
   where not exists (select o_orderkey from orders where o_custkey = c_custkey) \
   and c_acctbal > (select avg(c2.c_acctbal) from customer c2 \
   where c2.c_nationkey = customer.c_nationkey) \
   order by c_custkey"

let all : t list =
  [ { name = "lattice";
      tables = [ "customer"; "orders" ];
      draw = (fun rng -> sql (lattice (grid rng ~lo:400_000 ~hi:700_000 ~step:10_000)));
    };
    { name = "q2";
      tables = [ "part"; "supplier"; "partsupp"; "nation"; "region" ];
      draw =
        (fun rng ->
          let size = 1 + Random.State.int rng 50 in
          let suffix = pick rng type_suffixes in
          sql (q2 ~size ~suffix ~region:(pick rng regions)));
    };
    { name = "q17";
      tables = [ "lineitem"; "part" ];
      draw =
        (fun rng ->
          let brand = brand rng in
          sql (q17 ~brand ~container:(pick rng containers)));
    };
    { name = "q17-all-parts";
      tables = [ "lineitem"; "part" ];
      draw =
        (fun rng ->
          let f = grid rng ~lo:30 ~hi:70 ~step:10 in
          { sql = q17_all_parts f; direct = Some (q17_all_parts_direct f) });
    };
    { name = "revenue"; tables = [ "nation"; "supplier"; "lineitem" ]; draw = (fun _ -> sql revenue) };
    { name = "exists";
      tables = [ "supplier"; "partsupp" ];
      draw = (fun rng -> sql (exists (grid rng ~lo:8_000 ~hi:9_900 ~step:100)));
    };
    { name = "big-orders";
      tables = [ "orders" ];
      draw = (fun rng -> sql (big_orders (grid rng ~lo:150 ~hi:250 ~step:25)));
    };
    { name = "inactive"; tables = [ "customer"; "orders" ]; draw = (fun _ -> sql inactive) }
  ]

(* The q17 family of BENCH_10: three statements sharing the global
   threshold subquery, so a [query_many] batch can materialize it once
   and plant [CseScan] leaves in all three. *)
let family_tables = [ "lineitem"; "part" ]

let family brand : stmt list =
  let shared = "(select 0.2 * avg(l2.l_quantity) from lineitem l2)" in
  List.map sql
    [ Printf.sprintf
        "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
         where p_partkey = l_partkey and p_brand = '%s' and l_quantity < %s"
        brand shared;
      Printf.sprintf "select count(*) as small_lines from lineitem where l_quantity < %s"
        shared;
      Printf.sprintf
        "select l_returnflag, sum(l_extendedprice) as rev from lineitem \
         where l_quantity < %s group by l_returnflag"
        shared
    ]
