type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative id";
  i

let to_int id = id
let equal = Int.equal
