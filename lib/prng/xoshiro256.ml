(* The four state words live little-endian in one 32-byte [Bytes.t] at
   offsets 0, 8, 16 and 24.  Bytes reads and writes of [int64] compile to
   plain loads and stores of unboxed words, so a draw allocates nothing
   unless its caller asks for a boxed [int64] ({!next}); a record of
   [mutable int64] fields would box every stored word (and pay a
   [caml_modify] per store) on each draw. *)
type t = Bytes.t

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  t

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  of_words s0 s1 s2 s3

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 outputs are never all zero for distinct draws in practice,
     but guard against the forbidden state anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 0L 0L 0L
  else of_words s0 s1 s2 s3


(* One xoshiro256++ step.  Inlined into each entry point below, so the
   result reaches an [int] conversion without being boxed. *)
let[@inline] step t =
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tt in
  let s3 = rotl s3 45 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  result

let next t = step t
let next_int t = Int64.to_int (step t)
let next_top53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)
