type t = Xoshiro256.t

let create ~seed = Xoshiro256.create (Splitmix64.mix (Int64.of_int seed))
let int64 = Xoshiro256.next

let split t =
  let s0 = Xoshiro256.next t in
  let s1 = Xoshiro256.next t in
  let s2 = Xoshiro256.next t in
  let s3 = Xoshiro256.next t in
  (* Remix through SplitMix64 so the child stream is decorrelated from the
     parent even though it is seeded from the parent's outputs. *)
  let m = Splitmix64.mix in
  if m s0 = 0L && m s1 = 0L && m s2 = 0L && m s3 = 0L then
    Xoshiro256.of_state 1L 0L 0L 0L
  else Xoshiro256.of_state (m s0) (m s1) (m s2) (m s3)

let bits t = Xoshiro256.next_int t land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits t land (bound - 1)
  else
    (* Rejection keeps every residue equally likely; a loop, not a
       local recursive function, so a draw allocates no closure. *)
    let threshold = max_int - (max_int mod bound) in
    let r = ref (bits t) in
    while !r >= threshold do
      r := bits t
    done;
    !r mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t x = float_of_int (Xoshiro256.next_top53 t) *. 0x1.0p-53 *. x
let bernoulli t ~p = float t 1.0 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_indices t ~k ~n =
  if n < 0 then invalid_arg "Rng.sample_indices: negative n";
  let k = min k n in
  if k <= 0 then [||]
  else if 3 * k >= n then begin
    (* Dense case: partial Fisher–Yates over an explicit index array. *)
    let idx = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in_range t ~lo:i ~hi:(n - 1) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    Array.sub idx 0 k
  end
  else begin
    (* Sparse case: rejection, remembering the draws in an open-addressed
       table of at least 2k cells (a power of two, -1 = empty), probed
       linearly from a draw's low bits.  The draws are uniform, so the
       low bits spread them, and the table is at most half full. *)
    let cells = ref 1 in
    while !cells < 2 * k do
      cells := 2 * !cells
    done;
    let mask = !cells - 1 in
    let table = Array.make !cells (-1) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let candidate = int t n in
      let h = ref (candidate land mask) in
      while
        let c = Array.unsafe_get table !h in
        c >= 0 && not (Int.equal c candidate)
      do
        h := (!h + 1) land mask
      done;
      if Array.unsafe_get table !h < 0 then begin
        Array.unsafe_set table !h candidate;
        out.(!filled) <- candidate;
        incr filled
      end
    done;
    out
  end

let sample_without_replacement t ~k a =
  let idx = sample_indices t ~k ~n:(Array.length a) in
  Array.map (fun i -> a.(i)) idx
