type key = { k0 : int64; k1 : int64 }

let key_of_ints k0 k1 = { k0; k1 }

let key_of_rng rng =
  { k0 = Basalt_prng.Rng.int64 rng; k1 = Basalt_prng.Rng.int64 rng }

let rotl x b = Int64.(logor (shift_left x b) (shift_right_logical x (64 - b)))

(* The SipRound permutation applied to the four state words. *)
type state = {
  mutable v0 : int64;
  mutable v1 : int64;
  mutable v2 : int64;
  mutable v3 : int64;
}

let sipround s =
  s.v0 <- Int64.add s.v0 s.v1;
  s.v1 <- rotl s.v1 13;
  s.v1 <- Int64.logxor s.v1 s.v0;
  s.v0 <- rotl s.v0 32;
  s.v2 <- Int64.add s.v2 s.v3;
  s.v3 <- rotl s.v3 16;
  s.v3 <- Int64.logxor s.v3 s.v2;
  s.v0 <- Int64.add s.v0 s.v3;
  s.v3 <- rotl s.v3 21;
  s.v3 <- Int64.logxor s.v3 s.v0;
  s.v2 <- Int64.add s.v2 s.v1;
  s.v1 <- rotl s.v1 17;
  s.v1 <- Int64.logxor s.v1 s.v2;
  s.v2 <- rotl s.v2 32

let init key =
  {
    v0 = Int64.logxor key.k0 0x736f6d6570736575L;
    v1 = Int64.logxor key.k1 0x646f72616e646f6dL;
    v2 = Int64.logxor key.k0 0x6c7967656e657261L;
    v3 = Int64.logxor key.k1 0x7465646279746573L;
  }

let compress s ~c m =
  s.v3 <- Int64.logxor s.v3 m;
  for _ = 1 to c do
    sipround s
  done;
  s.v0 <- Int64.logxor s.v0 m

let finalize s ~d =
  s.v2 <- Int64.logxor s.v2 0xFFL;
  for _ = 1 to d do
    sipround s
  done;
  Int64.(logxor (logxor s.v0 s.v1) (logxor s.v2 s.v3))

let hash_bytes ?(c = 2) ?(d = 4) key msg =
  let len = Bytes.length msg in
  let s = init key in
  let full_blocks = len / 8 in
  for i = 0 to full_blocks - 1 do
    compress s ~c (Bytes.get_int64_le msg (i * 8))
  done;
  (* Last block: remaining bytes, padded, with the length in the top byte. *)
  let last = ref (Int64.shift_left (Int64.of_int (len land 0xFF)) 56) in
  for i = full_blocks * 8 to len - 1 do
    last :=
      Int64.logor !last
        (Int64.shift_left
           (Int64.of_int (Char.code (Bytes.get msg i)))
           (8 * (i mod 8)))
  done;
  compress s ~c !last;
  finalize s ~d

let hash_int64_pair ?(c = 2) ?(d = 4) key a b =
  let s = init key in
  compress s ~c a;
  compress s ~c b;
  compress s ~c (Int64.shift_left 16L 56);
  finalize s ~d

(* --- Midstate: resumable hashing for seeded rank functions ----------- *)

(* The four v-registers after the key initialisation and the compression
   of the first 8-byte block.  Absorbing that block — in Basalt, a
   slot's rank seed — costs [c] SipRounds plus the four key XORs; doing
   it once per seed instead of once per (seed, identifier) pair removes
   that work from the rank hot path entirely, and the immutable record
   lets the resumed computation run in straight-line let-bound [int64]
   code the compiler keeps unboxed (the mutable {!state} record boxes a
   fresh [int64] on every register store, which is most of the cost of
   {!hash_int64_pair}). *)
type midstate = { m0 : int64; m1 : int64; m2 : int64; m3 : int64; mc : int }

let prepare_int64 ?(c = 2) key a =
  let s = init key in
  compress s ~c a;
  { m0 = s.v0; m1 = s.v1; m2 = s.v2; m3 = s.v3; mc = c }

(* Generic (any c/d) resumption, used when the instance is not the 2-4
   default. *)
let finish_generic ~d ms b =
  let c = ms.mc in
  let s = { v0 = ms.m0; v1 = ms.m1; v2 = ms.m2; v3 = ms.m3 } in
  compress s ~c b;
  compress s ~c (Int64.shift_left 16L 56);
  finalize s ~d

(* Fully unrolled SipHash-2-4 tail: compress the second block, compress
   the 16-byte length block, finalize.  Eight SipRounds in straight-line
   immutable bindings — every intermediate stays an unboxed int64. *)
let finish24 ms b =
  let ( +% ) = Int64.add and ( ^% ) = Int64.logxor in
  let v0 = ms.m0 and v1 = ms.m1 and v2 = ms.m2 and v3 = ms.m3 in
  (* compress b: v3 ^= b; 2 rounds; v0 ^= b *)
  let v3 = v3 ^% b in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 ^% b in
  (* compress the length block (16 bytes total): m = 16 << 56 *)
  let m = Int64.shift_left 16L 56 in
  let v3 = v3 ^% m in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 ^% m in
  (* finalize: v2 ^= 0xff; 4 rounds; xor-fold *)
  let v2 = v2 ^% 0xFFL in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  let v0 = v0 +% v1 in let v1 = rotl v1 13 in let v1 = v1 ^% v0 in
  let v0 = rotl v0 32 in let v2 = v2 +% v3 in let v3 = rotl v3 16 in
  let v3 = v3 ^% v2 in let v0 = v0 +% v3 in let v3 = rotl v3 21 in
  let v3 = v3 ^% v0 in let v2 = v2 +% v1 in let v1 = rotl v1 17 in
  let v1 = v1 ^% v2 in let v2 = rotl v2 32 in
  v0 ^% v1 ^% v2 ^% v3

let finish_int64_pair ?d ms b =
  match (ms.mc, d) with
  | 2, (None | Some 4) -> finish24 ms b
  | _, d -> finish_generic ~d:(Option.value d ~default:4) ms b
