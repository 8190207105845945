(* Native-int variant of the SplitMix64 finalizer.  Multiplication wraps
   modulo 2^63 on 64-bit OCaml, which degrades the top bits slightly; the
   final [land max_int] keeps the result non-negative and the statistical
   tests in the test suite check the distribution is still uniform enough
   for ranking. *)
let mix63 x =
  let x = (x lxor (x lsr 30)) * 0x5851F42D4C957F2D in
  let x = (x lxor (x lsr 27)) * 0x14057B7EF767814F in
  (x lxor (x lsr 31)) land max_int

let combine63 seed x = mix63 (seed lxor mix63 x)
