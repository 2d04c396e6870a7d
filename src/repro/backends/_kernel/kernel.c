/* The exhaustive-verification shard of a compiled two-plane program, in C.
 *
 * The Python side (repro.backends.native) lowers a compiled op list --
 * (opcode, dst, a, b) tuples over plane slots, see repro.circuits.compiled
 * -- to a compact flat int32 program once per program.  Three entry
 * points:
 *
 *   repro_kernel_abi    the ABI version, checked before a cached build
 *                       is trusted;
 *   repro_tile_words    the lane words per tile, which sizes the
 *                       caller's scratch slab;
 *   repro_pair_shard    one g-row shard of the exhaustive 2-sort pair
 *                       product, which it generates itself from the
 *                       per-bit string masks, fused with the Table 2
 *                       select-compare -- one call per verification
 *                       shard, no Python-built planes.  Given a counts
 *                       array it also tallies each compared output's
 *                       mismatching lanes: one call checks a whole
 *                       g-row range of every output cone a region sweep
 *                       still needs.
 *
 * Two-plane Kleene semantics (Table 3 of the paper):
 *   AND: d1 = a1 & b1, d0 = a0 | b0        OR is the plane-dual
 *   XOR: d0 = (a0&b0)|(a1&b1), d1 = (a0&b1)|(a1&b0)
 *
 * Op word: bits 0-2 hold the opcode, whose values mirror
 * repro.backends.base (OP_AND, OP_OR, OP_XOR).  Bit 4 (OP_SWAP_A) reads
 * operand a with its two planes swapped, bit 5 (OP_SWAP_B) operand b: an
 * inverter folded into its reader, so INV and BUF emit no op at all.
 * ABI 4 added repro_pair_shard's trailing counts pointer; ABI 5 added
 * the swap bits and the negative (~row, planes swapped) compare entries;
 * ABI 6 removed the plane-op entry points (run_program, bitwise,
 * not_masked, popcount, extract_lanes) and the INV/BUF opcodes.
 *
 * Tail-mask note: every op is lane-wise, so garbage in lanes >= lanes
 * never reaches a real lane; pair_shard masks its diff row.
 */

#include <stdint.h>

#define REPRO_KERNEL_ABI 6

#define OP_AND 0
#define OP_OR 1
#define OP_XOR 3
#define OP_CODE 7
#define OP_SWAP_A 16
#define OP_SWAP_B 32

int32_t repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }

/* Lane-word tile: the shard runs all ops over one column block of the
 * rows before moving on, so the working set per tile is
 * 2 planes * rows * REPRO_TILE_WORDS * 8 bytes instead of streaming every
 * row through memory once per op.  Ops are independent across words, so
 * tiling the word axis does not change results.  A pair-shard program
 * shares rows between values by liveness: 2-sort(13) runs in 77 rows,
 * 38.5 KB per tile, inside a 48 KB L1d (its 340 one-per-net slots would
 * be 170 KB). */
#define REPRO_TILE_WORDS 32

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_NOINLINE __attribute__((noinline))
#else
#define REPRO_NOINLINE
#endif

/* Run the whole program over `span` words of every row; row r's words
 * start at p0 + r * stride and p1 + r * stride.  Its one caller is
 * repro_pair_shard's tile loop.  It stays out of line: the sweep timings
 * were measured on that code layout, and inlining would change it. */
static REPRO_NOINLINE void apply_ops(const int32_t *prog, int64_t n_ops,
                                     uint64_t *p0, uint64_t *p1,
                                     int64_t stride, int64_t span) {
    for (int64_t i = 0; i < n_ops; i++) {
        const int32_t *q = prog + 4 * i;
        uint64_t *d0 = p0 + q[1] * stride, *d1 = p1 + q[1] * stride;
        const uint64_t *a0 = p0 + q[2] * stride, *a1 = p1 + q[2] * stride;
        const uint64_t *b0 = p0 + q[3] * stride, *b1 = p1 + q[3] * stride;
        const uint64_t *t;
        int64_t w;
        if (q[0] & OP_SWAP_A) {
            t = a0;
            a0 = a1;
            a1 = t;
        }
        if (q[0] & OP_SWAP_B) {
            t = b0;
            b0 = b1;
            b1 = t;
        }
        switch (q[0] & OP_CODE) {
        case OP_AND:
            for (w = 0; w < span; w++) {
                d1[w] = a1[w] & b1[w];
                d0[w] = a0[w] | b0[w];
            }
            break;
        case OP_OR:
            for (w = 0; w < span; w++) {
                d0[w] = a0[w] & b0[w];
                d1[w] = a1[w] | b1[w];
            }
            break;
        default: /* OP_XOR */
            for (w = 0; w < span; w++) {
                const uint64_t x0 = a0[w], x1 = a1[w];
                const uint64_t y0 = b0[w], y1 = b1[w];
                d0[w] = (x0 & y0) | (x1 & y1);
                d1[w] = (x0 & y1) | (x1 & y0);
            }
            break;
        }
    }
}

int64_t repro_tile_words(void) { return REPRO_TILE_WORDS; }

static int64_t popcount64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return (int64_t)__builtin_popcountll(x);
#else
    int64_t n = 0;
    while (x) {
        x &= x - 1;
        n++;
    }
    return n;
#endif
}

static int64_t popcount_words(const uint64_t *a, int64_t words) {
    int64_t total = 0;
    for (int64_t w = 0; w < words; w++)
        total += popcount64(a[w]);
    return total;
}

/* ------------------------------------------------------------------ */
/* The exhaustive pair product, generated in-tile.                     */
/* ------------------------------------------------------------------ */

/* The low n bits set, 0 <= n <= 64. */
static uint64_t low_ones(int64_t n) {
    return n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

/* 64 bits of a bit string starting at bit `pos`; `m` carries one zero
 * pad word past its last bit so the window never reads beyond it.  The
 * split shift keeps pos % 64 == 0 well defined without a branch. */
static uint64_t window64(const uint64_t *m, int64_t pos) {
    const int64_t w = pos >> 6;
    const int sh = (int)(pos & 63);
    return (m[w] >> sh) | ((m[w + 1] << 1) << (63 - sh));
}

/* All-ones when bit `i` of `m` is set, else zero. */
static uint64_t bit_smear(const uint64_t *m, int64_t i) {
    return (uint64_t)0 - ((m[i >> 6] >> (i & 63)) & 1);
}

/* A run of lanes inside one word that share a g-row: bits [p, p + n),
 * g-row k (relative to g_lo), h-indices [r, r + n). */
typedef struct {
    int32_t p, n, k, r;
} segment;

/* Every word holds at most 64 / S + 2 runs; S >= 3 (width >= 1). */
#define REPRO_MAX_SEGMENTS (REPRO_TILE_WORDS * 24)

/* Rows of compare entry c: row c, or row ~c with its planes swapped
 * when c is negative (an inverted output read without an INV op). */
static void cmp_rows(const uint64_t *s0, const uint64_t *s1, int64_t T,
                     int32_t c, const uint64_t **r0, const uint64_t **r1) {
    if (c < 0) {
        *r0 = s1 + (int64_t)~c * T;
        *r1 = s0 + (int64_t)~c * T;
    } else {
        *r0 = s0 + (int64_t)c * T;
        *r1 = s1 + (int64_t)c * T;
    }
}

/* Verify one g-row shard of the 2-sort(width) pair product in one call.
 *
 * Lane L = (gi - g_lo) * S + hi for gi in [g_lo, g_hi), hi in [0, S):
 * scratch row b (g bit b) holds bit gi of m0/m1 row b, and row
 * width + b (h bit b) bit hi.  m0/m1 are `width` rows of
 * `mw` words each (row b = the can-be-0 / can-be-1 mask of bit b over
 * the S valid strings), plus one trailing zero pad word.
 *
 * Per tile the call writes, into the scratch slab (2 * n_rows *
 * REPRO_TILE_WORDS words): the g-side rows (one bit per S-lane g-row
 * block), the h-side rows (64-bit windowed reads of each bit's string
 * pattern, period S), and the select mask (lanes with hi <= gi).  Then
 * it runs the program and checks each compared row cmp[3j] against the
 * lane-wise mux of two other rows on both planes,
 *
 *   expected = (sel & row cmp[3j+1]) | (~sel & row cmp[3j+2])
 *
 * OR-ing mismatches into `diff` (ceil(lanes / 64) words, fully written
 * and tail-masked).  A negative compare entry c names row ~c with its
 * planes swapped.  `fill` lists [row, p0_ones, p1_ones] triples for
 * rows no op writes and no input provides (constant nets, unwired
 * reads); they are preset once, since nothing in the sweep writes them.
 * When `counts` is not NULL, counts[j] is increased by the number of
 * lanes where compared output j mismatches: the popcount of the same
 * tail-masked word it ORs into `diff`.  With NULL (plain sweeps) no
 * per-output popcount runs -- without a hardware popcount instruction
 * (plain -O3) each one is a dozen ALU ops per word per output.
 * Returns the popcount of `diff` (mismatching lanes). */
int64_t repro_pair_shard(const int32_t *prog, int64_t n_ops,
                         const int32_t *cmp, int64_t n_out,
                         const int32_t *fill, int64_t n_fill,
                         const uint64_t *m0, const uint64_t *m1,
                         int64_t width, int64_t mw,
                         int64_t g_lo, int64_t g_hi, uint64_t *scratch,
                         int64_t n_rows, uint64_t *diff, int64_t *counts) {
    const int64_t T = REPRO_TILE_WORDS;
    const int64_t S = ((int64_t)1 << (width + 1)) - 1;
    const int64_t K = g_hi - g_lo;
    const int64_t lanes = K * S;
    const int64_t words = (lanes + 63) >> 6;
    uint64_t *s0 = scratch;
    uint64_t *s1 = scratch + n_rows * T;
    uint64_t sel[REPRO_TILE_WORDS];
    segment seg[REPRO_MAX_SEGMENTS];
    int64_t i, w;

    for (i = 0; i < n_fill; i++) {
        const uint64_t v0 = fill[3 * i + 1] ? ~(uint64_t)0 : 0;
        const uint64_t v1 = fill[3 * i + 2] ? ~(uint64_t)0 : 0;
        uint64_t *r0 = s0 + fill[3 * i] * T, *r1 = s1 + fill[3 * i] * T;
        for (w = 0; w < T; w++) {
            r0[w] = v0;
            r1[w] = v1;
        }
    }

    /* (k, r): g-row and h-index of the next lane to cover. */
    int64_t k = 0, r = 0;
    for (int64_t t0 = 0; t0 < words; t0 += T) {
        const int64_t span = words - t0 < T ? words - t0 : T;
        /* Word w's runs are seg[first[w]] .. seg[first[w + 1] - 1]. */
        int64_t first[REPRO_TILE_WORDS + 1];
        int64_t n_seg = 0;
        for (w = 0; w < span; w++) {
            sel[w] = 0;
            first[w] = n_seg;
            for (int64_t p = 0; p < 64;) {
                const int64_t n = S - r < 64 - p ? S - r : 64 - p;
                if (k < K) {
                    /* sel: hi <= gi, i.e. the first g_lo + k + 1 h-indices. */
                    int64_t c = g_lo + k + 1 - r;
                    c = c < 0 ? 0 : (c > n ? n : c);
                    sel[w] |= low_ones(c) << p;
                }
                seg[n_seg].p = (int32_t)p;
                seg[n_seg].n = (int32_t)n;
                seg[n_seg].k = (int32_t)k;
                seg[n_seg].r = (int32_t)r;
                n_seg++;
                p += n;
                r += n;
                if (r == S) {
                    r = 0;
                    k++;
                }
            }
        }
        first[span] = n_seg;
        for (int64_t b = 0; b < width; b++) {
            const uint64_t *q0 = m0 + b * mw, *q1 = m1 + b * mw;
            uint64_t *g0 = s0 + b * T, *g1 = s1 + b * T;
            uint64_t *h0 = s0 + (width + b) * T, *h1 = s1 + (width + b) * T;
            for (w = 0; w < span; w++) {
                const segment *sg = seg + first[w];
                const segment *end = seg + first[w + 1];
                if (end - sg == 1) {
                    /* Fast path once S >= 64: all 64 lanes in one g-row,
                     * which lies below `lanes`, so k < K. */
                    g0[w] = bit_smear(q0, g_lo + sg->k);
                    g1[w] = bit_smear(q1, g_lo + sg->k);
                    h0[w] = window64(q0, sg->r);
                    h1[w] = window64(q1, sg->r);
                    continue;
                }
                g0[w] = g1[w] = h0[w] = h1[w] = 0;
                for (; sg < end; sg++) {
                    const uint64_t run = low_ones(sg->n) << sg->p;
                    if (sg->k < K) {
                        g0[w] |= run & bit_smear(q0, g_lo + sg->k);
                        g1[w] |= run & bit_smear(q1, g_lo + sg->k);
                    }
                    h0[w] |= (window64(q0, sg->r) << sg->p) & run;
                    h1[w] |= (window64(q1, sg->r) << sg->p) & run;
                }
            }
        }

        apply_ops(prog, n_ops, s0, s1, T, span);

        uint64_t *d = diff + t0;
        for (w = 0; w < span; w++)
            d[w] = 0;
        /* Lanes past `lanes` in the shard's last word are not pairs. */
        const uint64_t last =
            t0 + span == words ? low_ones(lanes - ((words - 1) << 6))
                               : ~(uint64_t)0;
        for (i = 0; i < n_out; i++) {
            const int32_t *c = cmp + 3 * i;
            const uint64_t *r0, *r1, *a0, *a1, *b0, *b1;
            cmp_rows(s0, s1, T, c[0], &r0, &r1);
            cmp_rows(s0, s1, T, c[1], &a0, &a1);
            cmp_rows(s0, s1, T, c[2], &b0, &b1);
            if (counts) {
                int64_t n = 0;
                for (w = 0; w < span; w++) {
                    const uint64_t s = sel[w];
                    const uint64_t e0 = (s & a0[w]) | (~s & b0[w]);
                    const uint64_t e1 = (s & a1[w]) | (~s & b1[w]);
                    uint64_t m = (r0[w] ^ e0) | (r1[w] ^ e1);
                    if (w == span - 1)
                        m &= last;
                    d[w] |= m;
                    n += popcount64(m);
                }
                counts[i] += n;
                continue;
            }
            for (w = 0; w < span; w++) {
                const uint64_t s = sel[w];
                const uint64_t e0 = (s & a0[w]) | (~s & b0[w]);
                const uint64_t e1 = (s & a1[w]) | (~s & b1[w]);
                d[w] |= (r0[w] ^ e0) | (r1[w] ^ e1);
            }
        }
    }
    if (words)
        diff[words - 1] &= low_ones(lanes - ((words - 1) << 6));
    return popcount_words(diff, words);
}
