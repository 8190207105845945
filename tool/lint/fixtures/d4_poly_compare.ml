(* D4 fixture: node ids must use Node_id.equal, not polymorphic (=).
   Lint with:  main.exe --as lib/basalt_core/d4_poly_compare.ml <this file> *)
let same a b = a = b
let order xs = List.sort compare xs
let member x xs = List.mem x xs
