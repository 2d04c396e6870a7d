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
 * A program is n_ops ops of five int32s, [op word, dst, a, b, c] over
 * rows.  Op word: bits 0-2 hold the opcode, whose values mirror
 * repro.backends.base (OP_AND, OP_OR, OP_XOR).  Bit 4 (OP_SWAP_A) reads
 * operand a with its two planes swapped, bit 5 (OP_SWAP_B) operand b,
 * bit 6 (OP_SWAP_C) operand c: an inverter folded into its reader, so
 * INV and BUF emit no op at all.  Bit 3 (OP_FUSED) makes the op
 * OUTER(INNER(a, b), c), with the opcode as OUTER and bits 8-10 as
 * INNER, both AND or OR: an AND/OR value with one reader, folded into
 * that reader (repro.backends.native._lower_pair_shard).  Negation is a
 * plane swap, so De Morgan's law holds exactly on both planes, M
 * included -- the swap of AND(a, b) is OR(swap a, swap b) -- and an
 * inverted read of the folded value becomes the dual inner op over
 * swapped a and b.  Per plane each of the four fused forms is one
 * three-input function, a single vpternlogq under AVX-512; an OR, fused
 * or not, runs as the plane dual of an AND (apply_ops).  An op without
 * OP_FUSED never reads c.
 *
 * ABI 4 added repro_pair_shard's trailing counts pointer; ABI 5 added
 * the swap bits and the negative (~row, planes swapped) compare entries;
 * ABI 6 removed the plane-op entry points (run_program, bitwise,
 * not_masked, popcount, extract_lanes) and the INV/BUF opcodes; ABI 7
 * gave repro_pair_shard its padded lane layout (mask rows carry no pad
 * word, and mw is the words per padded g-row); ABI 8 made ops five
 * int32s, with OP_FUSED, the inner opcode and OP_SWAP_C.
 *
 * Lane layouts.  A shard's compact lanes -- the layout of its diff and
 * of the reference planes -- run g-row after g-row, S = 2^(width+1) - 1
 * lanes each, so a g-row never starts on a word boundary.  Inside the
 * kernel every g-row instead takes R = max(1, (S + 1) / 64) whole words,
 * a power of two: word x holds g-row x >> log2(R) and the h-indices
 * 64 * (x mod R) onwards, so each input word is a copy or a smeared bit.
 * The lanes that are not pairs -- h-index S of each g-row (and, at
 * width <= 4, every h-index >= S of its one word), and every word past
 * the shard -- are dead: a `live` mask keeps them out of every compare
 * and count.  Every op is lane-wise, so what a dead lane holds never
 * reaches a live one.  Live mismatches are scattered back to their
 * compact lanes, so the caller only ever sees the compact layout.
 */

#include <stdint.h>

#define REPRO_KERNEL_ABI 8

#define OP_AND 0
#define OP_OR 1
#define OP_XOR 3
#define OP_CODE 7
#define OP_FUSED 8
#define OP_SWAP_A 16
#define OP_SWAP_B 32
#define OP_SWAP_C 64
#define OP_INNER_SHIFT 8

int32_t repro_kernel_abi(void) { return REPRO_KERNEL_ABI; }

/* Lane-word tile: the shard runs all ops over one column block of the
 * rows before moving on, so the working set per tile is
 * 2 planes * rows * REPRO_TILE_WORDS * 8 bytes instead of streaming every
 * row through memory once per op.  Ops are independent across words, so
 * tiling the word axis does not change results.  A pair-shard program
 * shares rows between values by liveness: 2-sort(13) runs in 75 rows,
 * 37.5 KB per tile, inside a 48 KB L1d (its 340 one-per-net slots would
 * be 170 KB).  Every tile runs all REPRO_TILE_WORDS words (the shard's
 * last one past its end on dead words), so each loop over a tile has a
 * fixed trip count. */
#define REPRO_TILE_WORDS 32

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_NOINLINE __attribute__((noinline))
#else
#define REPRO_NOINLINE
#endif

/* One AND or XOR op over one tile (apply_ops turns an OR into its plane
 * dual).  The destination planes are restrict, here and in apply_fused:
 * no op writes one of its up to three source rows
 * (repro.backends.native's _lower_pair_shard takes a destination row
 * before it frees its sources, and tests/test_backends.py
 * TestCompactPairShardProgram._check_rows asserts it), and the two
 * planes of a row never overlap.  They are parameters because compilers
 * honour restrict there; GCC ignores it on block-scope pointers and
 * guards each loop with a run-time overlap check instead. */
static inline void apply_op(int32_t op, uint64_t *restrict d0,
                            uint64_t *restrict d1, const uint64_t *a0,
                            const uint64_t *a1, const uint64_t *b0,
                            const uint64_t *b1) {
    int64_t w;
    if ((op & OP_CODE) == OP_AND) {
        for (w = 0; w < REPRO_TILE_WORDS; w++) {
            d1[w] = a1[w] & b1[w];
            d0[w] = a0[w] | b0[w];
        }
    } else { /* OP_XOR */
        for (w = 0; w < REPRO_TILE_WORDS; w++) {
            const uint64_t x0 = a0[w], x1 = a1[w];
            const uint64_t y0 = b0[w], y1 = b1[w];
            d0[w] = (x0 & y0) | (x1 & y1);
            d1[w] = (x0 & y1) | (x1 & y0);
        }
    }
}

/* A fused op over one tile whose outer op is AND: AND(INNER(x, y), z),
 * INNER = AND or OR by the op word (apply_ops turns an outer OR into its
 * plane dual).  Per plane it is one three-input function of the tile
 * words. */
static inline void apply_fused(int32_t op, uint64_t *restrict d0,
                               uint64_t *restrict d1, const uint64_t *x0,
                               const uint64_t *x1, const uint64_t *y0,
                               const uint64_t *y1, const uint64_t *z0,
                               const uint64_t *z1) {
    int64_t w;
    if (((op >> OP_INNER_SHIFT) & OP_CODE) == OP_AND) {
        for (w = 0; w < REPRO_TILE_WORDS; w++) {
            d1[w] = x1[w] & y1[w] & z1[w];
            d0[w] = x0[w] | y0[w] | z0[w];
        }
    } else { /* OP_OR */
        for (w = 0; w < REPRO_TILE_WORDS; w++) {
            d1[w] = (x1[w] | y1[w]) & z1[w];
            d0[w] = (x0[w] & y0[w]) | z0[w];
        }
    }
}

/* Tile rows of operand `row`, planes swapped when `swap` is set. */
static inline void operand(const uint64_t *p0, const uint64_t *p1,
                           int32_t row, int32_t swap, const uint64_t **r0,
                           const uint64_t **r1) {
    const int64_t at = (int64_t)row * REPRO_TILE_WORDS;
    *r0 = (swap ? p1 : p0) + at;
    *r1 = (swap ? p0 : p1) + at;
}

/* Run the whole program over one tile; row r's words start at
 * p0 + r * REPRO_TILE_WORDS and p1 + r * REPRO_TILE_WORDS.  Its one
 * caller is repro_pair_shard's tile loop.  It stays out of line: the
 * sweep timings were measured on that code layout, and inlining would
 * change it. */
static REPRO_NOINLINE void apply_ops(const int32_t *prog, int64_t n_ops,
                                     uint64_t *p0, uint64_t *p1) {
    const int64_t T = REPRO_TILE_WORDS;
    for (int64_t i = 0; i < n_ops; i++) {
        const int32_t *q = prog + 5 * i;
        int32_t op = q[0];
        uint64_t *d0 = p0 + q[1] * T, *d1 = p1 + q[1] * T, *t;
        const uint64_t *a0, *a1, *b0, *b1, *c0, *c1;
        if ((op & OP_CODE) == OP_OR) {
            /* OR(a, b) is the plane swap of AND(~a, ~b), and a fused
             * OR(INNER(a, b), c) that of AND(~INNER(a, b), ~c), where
             * ~INNER(a, b) is the dual inner op over ~a and ~b: so flip
             * both opcodes and all three swap bits (the inner ones are
             * unread unless fused), and write the destination's planes
             * swapped.  One loop per AND form keeps the build small. */
            op ^= OP_OR | (OP_OR << OP_INNER_SHIFT) | OP_SWAP_A | OP_SWAP_B |
                  OP_SWAP_C;
            t = d0;
            d0 = d1;
            d1 = t;
        }
        operand(p0, p1, q[2], op & OP_SWAP_A, &a0, &a1);
        operand(p0, p1, q[3], op & OP_SWAP_B, &b0, &b1);
        if (op & OP_FUSED) {
            operand(p0, p1, q[4], op & OP_SWAP_C, &c0, &c1);
            apply_fused(op, d0, d1, a0, a1, b0, b1, c0, c1);
        } else {
            apply_op(op, d0, d1, a0, a1, b0, b1);
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

/* ------------------------------------------------------------------ */
/* The exhaustive pair product, generated in-tile.                     */
/* ------------------------------------------------------------------ */

/* The low n bits set, 0 <= n; all 64 from n = 64 on. */
static uint64_t low_ones(int64_t n) {
    return n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
}

/* n input words of g-row gi from mask word r on, for one string bit:
 * the g side is bit gi of mask rows q0/q1 smeared, the h side their
 * words r .. r + n - 1 copied.  The rows are restrict parameters, as in
 * apply_op, so the loops vectorize without a run-time overlap check:
 * the four rows are distinct, and the masks are another buffer. */
static inline void input_run(uint64_t *restrict g0, uint64_t *restrict g1,
                             uint64_t *restrict h0, uint64_t *restrict h1,
                             const uint64_t *q0, const uint64_t *q1,
                             int64_t gi, int64_t r, int64_t n) {
    const uint64_t v0 = (uint64_t)0 - ((q0[gi >> 6] >> (gi & 63)) & 1);
    const uint64_t v1 = (uint64_t)0 - ((q1[gi >> 6] >> (gi & 63)) & 1);
    for (int64_t j = 0; j < n; j++) {
        g0[j] = v0;
        g1[j] = v1;
    }
    for (int64_t j = 0; j < n; j++) {
        h0[j] = q0[r + j];
        h1[j] = q1[r + j];
    }
}

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
 * Compact lane L = (gi - g_lo) * S + hi for gi in [g_lo, g_hi), hi in
 * [0, S): input row b (g bit b) holds bit gi of m0/m1 row b, and row
 * width + b (h bit b) bit hi.  m0/m1 are `width` rows of `mw` = R words
 * (row b = the can-be-0 / can-be-1 mask of bit b over the S valid
 * strings, zero from bit S on).
 *
 * Per tile of the padded layout (see the header) the call writes the
 * input rows into the scratch slab (2 * n_rows * REPRO_TILE_WORDS
 * words) -- h-side row b of word x is word x mod R of mask row b,
 * g-side row b bit g_lo + (x >> log2 R) of it smeared -- and the select
 * mask, the lanes with hi <= gi.  Then it runs the program and checks
 * each compared row cmp[3j] on its live lanes against the lane-wise mux
 * of two other rows on both planes,
 *
 *   expected = (sel & row cmp[3j+1]) | (~sel & row cmp[3j+2])
 *
 * A negative compare entry c names row ~c with its planes swapped.  The
 * mismatches of all outputs are ORed and scattered back to compact
 * lanes -- word x's bits go to lanes from (x >> log2 R) * S +
 * 64 * (x mod R) on -- in `diff`: ceil(K * S / 64) words for
 * K = g_hi - g_lo, zeroed first.  `fill` lists [row, p0_ones, p1_ones]
 * triples for rows no op writes and no input provides (constant nets,
 * unwired reads); they are preset once, since nothing in the sweep
 * writes them.  When `counts` is not NULL, counts[j] is increased by
 * the number of lanes where compared output j mismatches.  With NULL
 * (plain sweeps) no per-output popcount runs -- without a hardware
 * popcount instruction (plain -O3) each one is a dozen ALU ops per word
 * per output.  Returns the popcount of `diff` (mismatching lanes). */
int64_t repro_pair_shard(const int32_t *prog, int64_t n_ops,
                         const int32_t *cmp, int64_t n_out,
                         const int32_t *fill, int64_t n_fill,
                         const uint64_t *m0, const uint64_t *m1,
                         int64_t width, int64_t mw,
                         int64_t g_lo, int64_t g_hi, uint64_t *scratch,
                         int64_t n_rows, uint64_t *diff, int64_t *counts) {
    const int64_t T = REPRO_TILE_WORDS;
    const int64_t S = ((int64_t)1 << (width + 1)) - 1;
    const int lg = width > 5 ? (int)width - 5 : 0; /* R = mw = 1 << lg */
    const int64_t K = g_hi - g_lo;
    const int64_t words = K << lg;
    const int64_t run = mw < T ? mw : T; /* a g-row's words in one tile */
    uint64_t *s0 = scratch;
    uint64_t *s1 = scratch + n_rows * T;
    uint64_t sel[REPRO_TILE_WORDS], live[REPRO_TILE_WORDS];
    uint64_t d[REPRO_TILE_WORDS];
    int64_t total = 0, i, w;

    for (i = 0; i < n_fill; i++) {
        const uint64_t v0 = fill[3 * i + 1] ? ~(uint64_t)0 : 0;
        const uint64_t v1 = fill[3 * i + 2] ? ~(uint64_t)0 : 0;
        uint64_t *r0 = s0 + fill[3 * i] * T, *r1 = s1 + fill[3 * i] * T;
        for (w = 0; w < T; w++) {
            r0[w] = v0;
            r1[w] = v1;
        }
    }
    for (w = 0; w < (K * S + 63) >> 6; w++)
        diff[w] = 0;

    for (int64_t t0 = 0; t0 < words; t0 += T) {
        for (w = 0; w < T; w++) {
            const int64_t x = t0 + w;
            const int64_t h = (x & (mw - 1)) << 6; /* first h-index */
            const int64_t c = g_lo + (x >> lg) + 1 - h; /* hi <= gi */
            sel[w] = low_ones(c < 0 ? 0 : c);
            live[w] = x < words ? low_ones(S - h) : 0;
        }
        /* One run per g-row the tile touches; a run past the shard's end
         * repeats its last g-row, so no read leaves the mask rows. */
        for (w = 0; w < T; w += run) {
            const int64_t x = t0 + w;
            const int64_t gi = g_lo + (x < words ? x >> lg : K - 1);
            for (int64_t b = 0; b < width; b++)
                input_run(s0 + b * T + w, s1 + b * T + w,
                          s0 + (width + b) * T + w, s1 + (width + b) * T + w,
                          m0 + b * mw, m1 + b * mw, gi, x & (mw - 1), run);
        }

        apply_ops(prog, n_ops, s0, s1);

        for (w = 0; w < T; w++)
            d[w] = 0;
        for (i = 0; i < n_out; i++) {
            const int32_t *c = cmp + 3 * i;
            const uint64_t *r0, *r1, *a0, *a1, *b0, *b1;
            cmp_rows(s0, s1, T, c[0], &r0, &r1);
            cmp_rows(s0, s1, T, c[1], &a0, &a1);
            cmp_rows(s0, s1, T, c[2], &b0, &b1);
            if (counts) {
                int64_t n = 0;
                for (w = 0; w < T; w++) {
                    const uint64_t s = sel[w];
                    const uint64_t e0 = (s & a0[w]) | (~s & b0[w]);
                    const uint64_t e1 = (s & a1[w]) | (~s & b1[w]);
                    const uint64_t m =
                        ((r0[w] ^ e0) | (r1[w] ^ e1)) & live[w];
                    d[w] |= m;
                    n += popcount64(m);
                }
                counts[i] += n;
                continue;
            }
            for (w = 0; w < T; w++) {
                const uint64_t s = sel[w];
                const uint64_t e0 = (s & a0[w]) | (~s & b0[w]);
                const uint64_t e1 = (s & a1[w]) | (~s & b1[w]);
                d[w] |= ((r0[w] ^ e0) | (r1[w] ^ e1)) & live[w];
            }
        }
        /* Scatter the live mismatches to their compact lanes.  The split
         * shift keeps pos % 64 == 0 well defined; a word's high part is
         * nonzero only when its lanes reach into the next diff word. */
        for (w = 0; w < T; w++) {
            if (!d[w])
                continue;
            const int64_t x = t0 + w;
            const int64_t pos = (x >> lg) * S + ((x & (mw - 1)) << 6);
            const int sh = (int)(pos & 63);
            const uint64_t high = (d[w] >> 1) >> (63 - sh);
            diff[pos >> 6] |= d[w] << sh;
            if (high)
                diff[(pos >> 6) + 1] |= high;
            total += popcount64(d[w]);
        }
    }
    return total;
}
