(** JSON string escaping, shared by every JSON emitter. *)

(** [string s] is [s] as a JSON string literal, quotes included. *)
val string : string -> string
