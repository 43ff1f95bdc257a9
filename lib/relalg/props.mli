(** The property environment and expression-level analyses.

    Plan properties — keys, FD closure, single-row bounds and
    non-nullability — are inferred by {!Fd}, the single property
    engine; this module holds the catalog environment it reads and the
    predicate analyses it (and the linter) build on. *)

open Algebra

(** Base-table keys and nullability come from the environment
    (catalog).  [table_nullable] lists the columns that may contain
    NULL; every other base column is treated as NOT NULL. *)
type env = {
  table_key : string -> string list;
  table_nullable : string -> string list;
}

val default_env : env

(** Columns bound to a single non-NULL constant on every output row. *)
val const_bindings : op -> Value.t Col.IdMap.t

(** Verdict of a filter predicate: [Contradiction] = provably never
    satisfied (false or NULL on every row), [Tautology] = provably true
    on every row.  Sound; [Unknown] is the default. *)
type verdict = Contradiction | Tautology | Unknown

(** Conjunct-level analysis with constant folding, three-valued logic,
    IS NULL against provably non-null columns, and numeric interval
    bounds ([x > 5 AND x < 3]).  [consts] supplies column values proven
    constant by the input (see {!const_bindings}). *)
val pred_verdict : ?nonnull:Col.Set.t -> ?consts:Value.t Col.IdMap.t -> expr -> verdict
