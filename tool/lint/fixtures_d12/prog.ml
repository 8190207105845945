(* D12 fixture, laid out as a program (bin/): the uses D12 counts. *)

module E = Exports
module S = Set.Make (Whole)

let main () =
  Exports.used_by_program (E.used_via_alias (Exports.stale (S.cardinal S.empty)))
