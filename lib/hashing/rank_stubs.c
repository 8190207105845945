/* The Cheap rank kernel: one call ranks a prepared batch of candidates
   against every slot of a node (DESIGN.md §4 "The rank hot path").

   Slot i (seed, stamp, best rank, holder) takes candidate j (id raw[j],
   premixed digest dig[j], last offered at clock since[j]) in arrival
   order: when stamp > since[j] it evaluates

     r = tail (premix seed ^ dig[j])

   and installs the candidate when r < best or the slot is empty
   (holder < 0).  A slot whose stamp is above max_since takes every
   candidate without reading since[], which may then be empty.  The
   result is the number of evaluations.  rank.ml states the same
   arithmetic in OCaml ([Rank.rank]) and checks the arguments before
   calling here; nothing below checks a bound.

   Two bodies run that loop.  The scalar one walks the slots one at a
   time.  The AVX-512 one (F for the 64-bit lanes, DQ for vpmullq) puts
   eight slots in each zmm register and runs two registers side by side,
   so one broadcast candidate is ranked against sixteen seeds per step;
   the v mod 16 slots left over run under a lane mask.  The body is
   picked once, when the library is loaded, from what the CPU reports;
   every other target builds the scalar body alone.

   OCaml ints sit in arrays tagged, as 2x + 1.  The bodies keep stamps,
   since[] and holders tagged (tagging preserves order and sign), and
   untag seeds, digests and best ranks. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define M1 0x5851F42D4C957F2DULL
#define M2 0x14057B7EF767814FULL
/* OCaml's max_int, the final mask of the mixer. */
#define MAX_INT62 0x3FFFFFFFFFFFFFFFULL

/* The logical shift of a 63-bit OCaml int held in the low 63 bits of a
   64-bit word (bit 63 is don't-care): shift the top bit out first. */
static inline uint64_t lsr63(uint64_t x, int k) { return (x << 1) >> (k + 1); }

static inline uint64_t premix(uint64_t x) { return x ^ lsr63(x, 30); }

static inline int64_t tail(uint64_t x)
{
  x *= M1;
  x = (x ^ lsr63(x, 27)) * M2;
  return (int64_t)((x ^ lsr63(x, 31)) & MAX_INT62);
}

static inline uint64_t word(value a, intnat i) { return (uint64_t)Long_val(Field(a, i)); }

static intnat rank_scalar(value seeds, value stamps, value best_ranks,
                          value holders, value raw, value dig, value since,
                          intnat max_since, intnat len)
{
  mlsize_t v = Wosize_val(seeds);
  intnat evals = 0;
  for (mlsize_t i = 0; i < v; i++) {
    uint64_t p = premix(word(seeds, i));
    intnat stamp = Long_val(Field(stamps, i));
    int64_t best = Long_val(Field(best_ranks, i));
    value holder = Field(holders, i);
    if (stamp > max_since) {
      /* Every candidate is ranked: no since test, no counter.  An empty
         slot takes the first candidate outright; ids are non-negative,
         so from then on only r < best installs. */
      intnat j = 0;
      if (len == 0) continue;
      if (Long_val(holder) < 0) {
        best = tail(p ^ word(dig, 0));
        holder = Field(raw, 0);
        j = 1;
      }
      for (; j + 3 < len; j += 4) {
        int64_t r0 = tail(p ^ word(dig, j));
        int64_t r1 = tail(p ^ word(dig, j + 1));
        int64_t r2 = tail(p ^ word(dig, j + 2));
        int64_t r3 = tail(p ^ word(dig, j + 3));
        if (r0 < best) { best = r0; holder = Field(raw, j); }
        if (r1 < best) { best = r1; holder = Field(raw, j + 1); }
        if (r2 < best) { best = r2; holder = Field(raw, j + 2); }
        if (r3 < best) { best = r3; holder = Field(raw, j + 3); }
      }
      for (; j < len; j++) {
        int64_t r = tail(p ^ word(dig, j));
        if (r < best) { best = r; holder = Field(raw, j); }
      }
      evals += len;
    } else {
      for (intnat j = 0; j < len; j++) {
        if (stamp > Long_val(Field(since, j))) {
          int64_t r = tail(p ^ word(dig, j));
          evals++;
          if (r < best || Long_val(holder) < 0) {
            best = r;
            holder = Field(raw, j);
          }
        }
      }
    }
    Field(best_ranks, i) = Val_long(best);
    Field(holders, i) = holder;
  }
  return evals;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_AVX512_BODY 1
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512dq")))

AVX512 static inline __m512i lsr63_8(__m512i x, int k)
{
  return _mm512_srli_epi64(_mm512_slli_epi64(x, 1), k + 1);
}

AVX512 static inline __m512i tail_8(__m512i x)
{
  const __m512i m1 = _mm512_set1_epi64((int64_t)M1);
  const __m512i m2 = _mm512_set1_epi64((int64_t)M2);
  x = _mm512_mullo_epi64(x, m1);
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, lsr63_8(x, 27)), m2);
  return _mm512_and_si512(_mm512_xor_si512(x, lsr63_8(x, 31)),
                          _mm512_set1_epi64((int64_t)MAX_INT62));
}

/* Slots [i, i + 16), lanes k0 of the first register and k1 of the
   second: the lanes past v are masked off, so they load as zero, count
   no evaluation and are never stored. */
AVX512 static inline intnat rank_block16(
    const int64_t *seeds, const int64_t *stamps, int64_t *best_ranks,
    int64_t *holders, const int64_t *raw, const int64_t *dig,
    const int64_t *since, int64_t max_since_tagged, intnat len,
    __mmask8 k0, __mmask8 k1)
{
  /* premix of an untagged seed: its tagged word shifted right by 31
     is the 63-bit logical shift of the seed by 30. */
  __m512i s0 = _mm512_maskz_loadu_epi64(k0, seeds);
  __m512i s1 = _mm512_maskz_loadu_epi64(k1, seeds + 8);
  __m512i p0 = _mm512_xor_si512(_mm512_srai_epi64(s0, 1), _mm512_srli_epi64(s0, 31));
  __m512i p1 = _mm512_xor_si512(_mm512_srai_epi64(s1, 1), _mm512_srli_epi64(s1, 31));
  __m512i st0 = _mm512_maskz_loadu_epi64(k0, stamps);
  __m512i st1 = _mm512_maskz_loadu_epi64(k1, stamps + 8);
  __m512i b0 = _mm512_srai_epi64(_mm512_maskz_loadu_epi64(k0, best_ranks), 1);
  __m512i b1 = _mm512_srai_epi64(_mm512_maskz_loadu_epi64(k1, best_ranks + 8), 1);
  __m512i h0 = _mm512_maskz_loadu_epi64(k0, holders);
  __m512i h1 = _mm512_maskz_loadu_epi64(k1, holders + 8);
  const __m512i zero = _mm512_setzero_si512();
  __mmask8 e0 = _mm512_mask_cmplt_epi64_mask(k0, h0, zero);
  __mmask8 e1 = _mm512_mask_cmplt_epi64_mask(k1, h1, zero);
  __m512i ms = _mm512_set1_epi64(max_since_tagged);
  __mmask8 f0 = _mm512_mask_cmpgt_epi64_mask(k0, st0, ms);
  __mmask8 f1 = _mm512_mask_cmpgt_epi64_mask(k1, st1, ms);
  intnat evals = 0;
  if (f0 == k0 && f1 == k1) {
    /* Every lane postdates the batch: rank all of it, unchecked.  After
       the first candidate no lane is empty. */
    for (intnat j = 0; j < len; j++) {
      __m512i d = _mm512_set1_epi64(dig[j] >> 1);
      __m512i c = _mm512_set1_epi64(raw[j]);
      __m512i r0 = tail_8(_mm512_xor_si512(p0, d));
      __m512i r1 = tail_8(_mm512_xor_si512(p1, d));
      __mmask8 w0 = _mm512_cmplt_epi64_mask(r0, b0) | e0;
      __mmask8 w1 = _mm512_cmplt_epi64_mask(r1, b1) | e1;
      e0 = 0;
      e1 = 0;
      b0 = _mm512_mask_mov_epi64(b0, w0, r0);
      b1 = _mm512_mask_mov_epi64(b1, w1, r1);
      h0 = _mm512_mask_mov_epi64(h0, w0, c);
      h1 = _mm512_mask_mov_epi64(h1, w1, c);
    }
    evals = len * (__builtin_popcount(k0) + __builtin_popcount(k1));
  } else {
    /* A lane whose stamp is above max_since passes every since test, so
       one test per lane and candidate serves all lanes. */
    for (intnat j = 0; j < len; j++) {
      __m512i sj = _mm512_set1_epi64(since[j]);
      __mmask8 a0 = _mm512_mask_cmpgt_epi64_mask(k0, st0, sj);
      __mmask8 a1 = _mm512_mask_cmpgt_epi64_mask(k1, st1, sj);
      if ((a0 | a1) == 0) continue;
      evals += __builtin_popcount(a0) + __builtin_popcount(a1);
      __m512i d = _mm512_set1_epi64(dig[j] >> 1);
      __m512i c = _mm512_set1_epi64(raw[j]);
      __m512i r0 = tail_8(_mm512_xor_si512(p0, d));
      __m512i r1 = tail_8(_mm512_xor_si512(p1, d));
      __mmask8 w0 = a0 & (_mm512_cmplt_epi64_mask(r0, b0) | e0);
      __mmask8 w1 = a1 & (_mm512_cmplt_epi64_mask(r1, b1) | e1);
      e0 &= (__mmask8)~w0;
      e1 &= (__mmask8)~w1;
      b0 = _mm512_mask_mov_epi64(b0, w0, r0);
      b1 = _mm512_mask_mov_epi64(b1, w1, r1);
      h0 = _mm512_mask_mov_epi64(h0, w0, c);
      h1 = _mm512_mask_mov_epi64(h1, w1, c);
    }
  }
  const __m512i one = _mm512_set1_epi64(1);
  _mm512_mask_storeu_epi64(best_ranks, k0, _mm512_or_si512(_mm512_slli_epi64(b0, 1), one));
  _mm512_mask_storeu_epi64(best_ranks + 8, k1, _mm512_or_si512(_mm512_slli_epi64(b1, 1), one));
  _mm512_mask_storeu_epi64(holders, k0, h0);
  _mm512_mask_storeu_epi64(holders + 8, k1, h1);
  return evals;
}

AVX512 static intnat rank_avx512(value seeds, value stamps, value best_ranks,
                                 value holders, value raw, value dig,
                                 value since, intnat max_since, intnat len)
{
  intnat v = (intnat)Wosize_val(seeds);
  const int64_t *S = (const int64_t *)&Field(seeds, 0);
  const int64_t *T = (const int64_t *)&Field(stamps, 0);
  int64_t *B = (int64_t *)&Field(best_ranks, 0);
  int64_t *H = (int64_t *)&Field(holders, 0);
  const int64_t *R = (const int64_t *)&Field(raw, 0);
  const int64_t *D = (const int64_t *)&Field(dig, 0);
  const int64_t *C = (const int64_t *)&Field(since, 0);
  int64_t ms = (int64_t)Val_long(max_since);
  intnat evals = 0;
  intnat i = 0;
  for (; i + 16 <= v; i += 16)
    evals += rank_block16(S + i, T + i, B + i, H + i, R, D, C, ms, len, 0xFF, 0xFF);
  intnat rest = v - i;
  if (rest > 0) {
    __mmask8 k0 = rest >= 8 ? 0xFF : (__mmask8)((1u << rest) - 1);
    __mmask8 k1 = rest > 8 ? (__mmask8)((1u << (rest - 8)) - 1) : 0;
    evals += rank_block16(S + i, T + i, B + i, H + i, R, D, C, ms, len, k0, k1);
  }
  return evals;
}
#endif

typedef intnat (*rank_body)(value, value, value, value, value, value, value,
                            intnat, intnat);

static rank_body chosen = rank_scalar;

#ifdef HAVE_AVX512_BODY
__attribute__((constructor)) static void choose_body(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
    chosen = rank_avx512;
}
#else
/* No second body to reach: the AVX-512 entry runs the scalar one and
   [basalt_rank_cheap_avx512_chosen] reports false. */
#define rank_avx512 rank_scalar
#endif

intnat basalt_rank_cheap(value seeds, value stamps, value best_ranks,
                         value holders, value raw, value dig, value since,
                         intnat max_since, intnat len)
{
  return chosen(seeds, stamps, best_ranks, holders, raw, dig, since,
                max_since, len);
}

/* The two bodies by name, for the tests that check each against
   [Rank.rank]. */
intnat basalt_rank_cheap_scalar(value seeds, value stamps, value best_ranks,
                                value holders, value raw, value dig,
                                value since, intnat max_since, intnat len)
{
  return rank_scalar(seeds, stamps, best_ranks, holders, raw, dig, since,
                     max_since, len);
}

intnat basalt_rank_cheap_avx512(value seeds, value stamps, value best_ranks,
                                value holders, value raw, value dig,
                                value since, intnat max_since, intnat len)
{
  return rank_avx512(seeds, stamps, best_ranks, holders, raw, dig, since,
                     max_since, len);
}

#define BYTE_ENTRY(name)                                                   \
  value name##_byte(value *argv, int argn)                                 \
  {                                                                        \
    (void)argn;                                                            \
    return Val_long(name(argv[0], argv[1], argv[2], argv[3], argv[4],      \
                         argv[5], argv[6], Long_val(argv[7]),              \
                         Long_val(argv[8])));                              \
  }

BYTE_ENTRY(basalt_rank_cheap)
BYTE_ENTRY(basalt_rank_cheap_scalar)
BYTE_ENTRY(basalt_rank_cheap_avx512)

value basalt_rank_cheap_avx512_chosen(value unit)
{
  (void)unit;
  return Val_bool(chosen != rank_scalar);
}
