/* CRC-32 (ISO 3309 / zlib polynomial 0xEDB88320, reflected) for the WAL
 * record format (DESIGN.md §15).
 *
 * Two kernels, one result:
 *
 * - Slicing-by-8 (Kounavis & Berry): 8 input bytes per step through 8
 *   tables, so a step's table loads are independent instead of one
 *   serial chain per byte.  Table 0 is the classic byte table; table k
 *   advances table k-1 by one zero byte.  Runs everywhere, and on every
 *   input shorter than one 64-byte block and every tail.
 *
 * - Carry-less-multiply folding (Gopal, Ozturk et al., "Fast CRC
 *   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
 *   Intel, 2009): four 128-bit lanes each fold 16 bytes per step, the
 *   lanes are folded into one, then the remaining 16-byte blocks, and a
 *   Barrett reduction gives the 32-bit state.  The constants are the
 *   bit-reflected k1..k5, P(x) and mu of the paper's appendix for this
 *   polynomial.  Taken only on x86-64 CPUs whose CPUID reports
 *   PCLMULQDQ and SSE4.1; the function is compiled for that target
 *   alone, so the rest of the build keeps the baseline ISA.
 *
 * The OCaml side checks the byte range; the stub is [@@noalloc] with
 * untagged ints, so a call is a plain C call with no allocation and no
 * runtime interaction.  The buffer cannot move during it. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>

static uint32_t crc_tables[8][256];

#if defined(__x86_64__) && defined(__GNUC__)
#define TWOPLSF_CRC_CLMUL 1
#include <cpuid.h>
#include <immintrin.h>
static int use_clmul;
#endif

/* Called once from [Crc32]'s initialisation, before any domain can
   compute a CRC.  CPUID leaf 1 is read directly rather than through
   [__builtin_cpu_supports], which would link libgcc's CPU-model
   constructor into the startup code of every program using [Util]. */
value twoplsf_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (uint32_t n = 0; n < 256; n++) {
      uint32_t prev = crc_tables[k - 1][n];
      crc_tables[k][n] = (prev >> 8) ^ crc_tables[0][prev & 0xFF];
    }
#ifdef TWOPLSF_CRC_CLMUL
  {
    unsigned int eax, ebx, ecx, edx;
    use_clmul = __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_PCLMUL) && (ecx & bit_SSE4_1);
  }
#endif
  return Val_unit;
}

/* [c] is the running state (the complemented CRC). */
static uint32_t crc_table(uint32_t c, const unsigned char *p, size_t n)
{
  while (n >= 8) {
    uint32_t lo = c ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
                       | (uint32_t)p[3] << 24);
    c = crc_tables[7][lo & 0xFF] ^ crc_tables[6][(lo >> 8) & 0xFF]
        ^ crc_tables[5][(lo >> 16) & 0xFF] ^ crc_tables[4][lo >> 24]
        ^ crc_tables[3][p[4]] ^ crc_tables[2][p[5]] ^ crc_tables[1][p[6]]
        ^ crc_tables[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n--)
    c = crc_tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef TWOPLSF_CRC_CLMUL
/* Requires [n >= 64] and [n % 16 == 0]; [c] is the running state. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_clmul(uint32_t c, const unsigned char *p, size_t n)
{
  /* x^(4*128+32) mod P, x^(4*128-32) mod P: fold across 64 bytes */
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  /* x^(128+32) mod P, x^(128-32) mod P: fold across 16 bytes */
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  /* x^64 mod P: 96 bits to 64 */
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  /* P(x) and mu = floor(x^64 / P(x)), both reflected */
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, x5, x6, x7, x8;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
  p += 64;
  n -= 64;

  while (n >= 64) {
    x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    n -= 64;
  }

  /* Four lanes into one. */
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  /* The remaining 16-byte blocks. */
  while (n >= 16) {
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, _mm_loadu_si128((const __m128i *)p)), x5);
    p += 16;
    n -= 16;
  }

  /* 128 bits to 64. */
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2);

  /* Barrett reduction to 32 bits. */
  x2 = _mm_and_si128(x1, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* [crc] is a finished CRC-32 (0 for an empty prefix); so is the result. */
static uint32_t crc_update(uint32_t crc, const unsigned char *p, size_t n)
{
  uint32_t c = ~crc;
#ifdef TWOPLSF_CRC_CLMUL
  if (use_clmul && n >= 64) {
    size_t blocks = n & ~(size_t)15;
    c = crc_clmul(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return ~crc_table(c, p, n);
}

intnat twoplsf_crc32_update_untagged(intnat crc, value buf, intnat pos, intnat len)
{
  return (intnat)crc_update((uint32_t)crc, (const unsigned char *)Bytes_val(buf) + pos,
                            (size_t)len);
}

value twoplsf_crc32_update(value crc, value buf, value pos, value len)
{
  return Val_long(
      twoplsf_crc32_update_untagged(Long_val(crc), buf, Long_val(pos), Long_val(len)));
}
