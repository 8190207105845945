type t = int

let compare = Int.compare
let describe = string_of_int
