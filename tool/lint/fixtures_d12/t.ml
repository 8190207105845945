(* D12 fixture, laid out as a test (test/): its uses do not count. *)

let check () = Exports.used_by_test 0
