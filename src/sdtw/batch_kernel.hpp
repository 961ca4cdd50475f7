#ifndef SF_SDTW_BATCH_KERNEL_HPP
#define SF_SDTW_BATCH_KERNEL_HPP

/**
 * @file
 * Internal lane-batched sDTW row kernel, shared by every SIMD backend.
 *
 * The batched engine lays B independent reads out struct-of-arrays:
 * DP row and dwell buffers are interleaved `[column][lane]`, so one
 * vector register holds the same reference column of W different
 * reads.  foldRowBatch() advances every lane by one query sample per
 * call — the inter-sequence parallelisation of the classic SIMD
 * Smith-Waterman trick, applied to the paper's sDTW recurrence.
 *
 * The second kernel, foldRead(), serves configurations without
 * reference deletions on the SIMD backends.  There DP row i depends
 * only on row i-1, so a single read can be vectorised along the
 * reference instead: one vector holds W consecutive columns of the
 * same read, and nothing is wasted when a dispatch carries fewer reads
 * than a vector has lanes.
 * BatchSdtw::planInterleaved() decides per dispatch which reads take
 * which kernel.
 *
 * Each backend translation unit (scalar in batch.cpp, batch_sse2.cpp,
 * batch_avx2.cpp, batch_avx512.cpp) instantiates the templates below
 * with its own `Ops` vector-trait struct and exports a resolver that
 * maps an SdtwConfig onto the right specialisations.  Both recurrences
 * are kept expression-for-expression identical to SdtwEngine::foldRow
 * in engine.cpp: their costs are bit-exact against the serial engine
 * for every configuration (enforced by tests/test_batch.cpp).
 *
 * An `Ops` struct provides, over vectors of W unsigned 32-bit lanes:
 *   W, Vec, Mask, kMaxStrip (deepest interleaved strip worth its
 *   registers),
 *   broadcast(i32), loadI32, loadU32/storeU32, loadDwell/storeDwell
 *   (exactly W bytes of u8 memory <-> u32 lanes), addI32, subI32,
 *   mulI32 (low 32 bits), shlI32 (runtime count), absI32, minI32,
 *   minU32, maxU32, leU32/ltU32/gtU32 (unsigned compares producing a
 *   Mask), select(mask, if_true, if_false), dwellBump (the fused
 *   `kgt ? min(dw + 1, cap) : 1` update — AVX-512 folds it into one
 *   masked add).  The SIMD backends (W > 1) also provide, for
 *   foldRead() only, kMaxReadStrip (deepest single-read strip) and
 *   shiftInLane(v, carry) = {carry[W-1], v[0], ..., v[W-2]}: v moved
 *   up one lane with the top lane of the previous block shifted in
 *   below it (valignd on AVX-512, permute2x128 + alignr on AVX2, a
 *   byte-shift pair on SSE2).
 */

#include <cstdint>
#include <type_traits>

#include "common/types.hpp"
#include "sdtw/config.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SF_BATCH_RESTRICT __restrict__
#else
#define SF_BATCH_RESTRICT
#endif

namespace sf::sdtw::detail {

/** Strip rows a carry slab reserves per plane (the deepest strip any
 * backend offers; shallower sweeps simply leave the tail unused). */
inline constexpr std::size_t kCarryStrip = 4;
/** Register planes one sweep carries across a tile edge: inPrev,
 * dwPrev, and (reference-deletion configs only) outPrev. */
inline constexpr std::size_t kCarryPlanes = 3;

/** Cost slots one sweep's tile-carry slab occupies for a given lane
 * stride; plane p, strip row t lives at `(p * kCarryStrip + t) *
 * stride + lane`. */
inline constexpr std::size_t
carrySlots(std::size_t stride)
{
    return kCarryPlanes * kCarryStrip * stride;
}

/**
 * Fold N query samples per lane (a row strip) into the interleaved
 * DP state.  Strip-mining is the key throughput lever: one sweep
 * through the row/dwell buffers folds N DP rows, so the per-column
 * loads, stores, dwell packing and reference broadcast are amortised
 * N ways and the kernel stays vector-ALU-bound instead of splitting
 * its port budget with bookkeeping.
 *
 * Column tiling: the driver may hand the sweep a sub-range of the
 * reference (a cache-sized tile) instead of all of it.  The sweep's
 * horizontal register state (inPrev/dwPrev/outPrev per strip row) is
 * then parked in @p carry at the tile edge and reloaded when the same
 * sweep resumes on the next tile, so a tiled walk computes exactly
 * the cell sequence an untiled one would — bit for bit.
 *
 * @param q       widened per-lane query samples, `[row t][lane]` as
 *                `q[t * stride + lane]`, N rows
 * @param ref     shared reference squiggle, length @p m — for a tile,
 *                already offset to the tile's first column
 * @param m       columns in this tile (the whole reference when the
 *                driver is not tiling)
 * @param stride  lane count B of the interleaved layout (multiple of
 *                Ops::W)
 * @param groups  vector groups to actually process (occupancy
 *                optimisation; groups * Ops::W <= stride)
 * @param rows    interleaved cost rows `[j * stride + lane]` of the
 *                tile (offset like @p ref), updated in place
 * @param dwell   interleaved capped dwell counters, same layout
 * @param carry   this sweep's boundary-state slab of carrySlots()
 *                Cost slots, or nullptr when the walk is untiled
 * @param lead_tile true on the reference's first tile: the sweep runs
 *                the first-column (vertical-only) recurrence and seeds
 *                the carry; false resumes from @p carry (which must
 *                then be non-null)
 */
using FoldRowFn = void (*)(const std::int32_t *q, const NormSample *ref,
                           std::size_t m, std::size_t stride,
                           std::size_t groups, Cost *rows,
                           std::uint8_t *dwell, Cost bonus_unit,
                           std::uint8_t cap, Cost *carry,
                           bool lead_tile);

/**
 * Fold @p n query samples of one read into its contiguous DP row, in
 * place (the single-read kernel; no-reference-deletion configs only).
 *
 * @param q      the read's query samples, @p n of them
 * @param ref    the reference widened to i32 and zero-padded to a
 *               whole number of vector blocks (roundup(m, Ops::W)
 *               entries), so block loads never need a tail mask
 * @param m      reference columns
 * @param row    the read's cost row, exactly @p m entries
 * @param dwell  the read's capped dwell counters, exactly @p m
 *               entries; neither buffer is read or written past m
 */
using FoldReadFn = void (*)(const NormSample *q, std::size_t n,
                            const std::int32_t *ref, std::size_t m,
                            Cost *row, std::uint8_t *dwell,
                            Cost bonus_unit, std::uint8_t cap);

/** Kernels a backend offers for one config.  For the interleaved
 * kernel the driver picks the deepest strip every in-flight lane has
 * enough remaining samples for. */
struct FoldRowFns
{
    FoldRowFn fold1 = nullptr; //!< 1 row per sweep
    FoldRowFn fold2 = nullptr; //!< 2 rows per sweep
    FoldRowFn fold4 = nullptr; //!< 4 rows per sweep
    /** Single-read kernel; nullptr for reference-deletion configs,
     * whose rows carry a dependency along the reference, and on the
     * 1-lane scalar backend. */
    FoldReadFn foldRead = nullptr;
};

/** Pointwise cost with the metric resolved at compile time. */
template <class Ops, bool Squared>
inline typename Ops::Vec
cellCostV(typename Ops::Vec q, typename Ops::Vec r)
{
    const auto ad = Ops::absI32(Ops::subI32(q, r));
    if constexpr (Squared)
        return Ops::mulI32(ad, ad);
    else
        return ad;
}

/** Saturating unsigned add: sum, or all-ones when it wrapped. */
template <class Ops>
inline typename Ops::Vec
satAddV(typename Ops::Vec a, typename Ops::Vec b)
{
    const auto sum = Ops::addI32(a, b);
    return Ops::select(Ops::ltU32(sum, a), Ops::broadcast(-1), sum);
}

/** Saturating unsigned subtract clamping at zero. */
template <class Ops>
inline typename Ops::Vec
satSubV(typename Ops::Vec a, typename Ops::Vec b)
{
    return Ops::subI32(Ops::maxU32(a, b), b);
}

/** How the match bonus enters the recurrence. */
enum class BonusMode {
    Off,   //!< matchBonus == 0: no reward term at all
    Mul,   //!< reward = bonus_unit * dwell (general case)
    Shift, //!< bonus_unit is a power of two: reward = dwell << log2
};

/** log2 of a power-of-two bonus unit (BonusMode::Shift). */
inline int
bonusShift(Cost bonus_unit)
{
    int shift = 0;
    while ((Cost(1) << shift) < bonus_unit)
        ++shift;
    return shift;
}

/** The match-bonus reward for dwell @p dw, per BonusMode. */
template <class Ops, BonusMode Bonus>
inline typename Ops::Vec
rewardV(typename Ops::Vec dw, typename Ops::Vec bonusv, int shift)
{
    if constexpr (Bonus == BonusMode::Shift)
        return Ops::shlI32(dw, shift);
    else
        return Ops::mulI32(bonusv, dw);
}

/**
 * One batched strip update: fold rows i .. i+N-1 of every lane in a
 * single in-place sweep over the interleaved buffers.
 *
 * The recurrence mirrors SdtwEngine::foldRow exactly (see engine.cpp
 * for its derivation); batched costs are bit-exact.  Per column, row
 * t consumes the carried register state of row t-1: `in[t]` is
 * S[i-1+t][j] (t = 0 comes from memory, t > 0 is the fold output of
 * the row above), `inPrev[t]`/`dwPrev[t]` are the same quantities one
 * column back, and for RefDel `outPrev[t]` is S[i+t][j-1].  Only the
 * last row of the strip touches memory on the way out, so the
 * per-column load/store/pack/broadcast overhead is amortised over N
 * folded rows and the sweep stays vector-ALU-bound.
 *
 * When the driver tiles the reference, the same horizontal register
 * state is saved to / restored from @p carry at tile edges (see
 * FoldRowFn); the arithmetic per cell and its input provenance are
 * unchanged, so tiled and untiled walks agree bit for bit.
 */
template <class Ops, bool Squared, bool RefDel, BonusMode Bonus, int N>
void
foldRowBatch(const std::int32_t *SF_BATCH_RESTRICT q,
             const NormSample *SF_BATCH_RESTRICT ref, std::size_t m,
             std::size_t stride, std::size_t groups,
             Cost *SF_BATCH_RESTRICT rows,
             std::uint8_t *SF_BATCH_RESTRICT dwell, Cost bonus_unit,
             std::uint8_t cap, Cost *SF_BATCH_RESTRICT carry,
             bool lead_tile)
{
    using Vec = typename Ops::Vec;
    constexpr bool UseBonus = Bonus != BonusMode::Off;
    const Vec capv = Ops::broadcast(std::int32_t(cap));
    const Vec capm1v = Ops::broadcast(std::int32_t(cap) - 1);
    const Vec onev = Ops::broadcast(1);
    const Vec bonusv = Ops::broadcast(std::int32_t(bonus_unit));
    [[maybe_unused]] const int bonus_shift = bonusShift(bonus_unit);

    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = g * Ops::W;
        // Plain arrays, not std::array: vector types carry alignment
        // attributes that template arguments drop (-Wignored-attributes).
        Vec qv[std::size_t(N)];
        for (int t = 0; t < N; ++t)
            qv[std::size_t(t)] =
                Ops::loadI32(q + std::size_t(t) * stride + base);
        Cost *SF_BATCH_RESTRICT r = rows + base;
        std::uint8_t *SF_BATCH_RESTRICT d = dwell + base;

        // Carried per-row register state, one column behind.
        Vec inPrev[std::size_t(N)], dwPrev[std::size_t(N)],
            outPrev[std::size_t(N)];
        Cost *SF_BATCH_RESTRICT cb =
            carry != nullptr ? carry + base : nullptr;

        std::size_t j0 = 1;
        if (lead_tile) {
            // First column of the reference: only the vertical
            // predecessor exists.
            const Vec refv = Ops::broadcast(std::int32_t(ref[0]));
            Vec in = Ops::loadU32(r);
            Vec dw = Ops::loadDwell(d);
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                inPrev[ts] = in;
                dwPrev[ts] = dw;
                const Vec out = satAddV<Ops>(
                    in, cellCostV<Ops, Squared>(qv[ts], refv));
                const Vec ndw =
                    Ops::minI32(Ops::addI32(dw, onev), capv);
                if constexpr (RefDel)
                    outPrev[ts] = out;
                in = out;
                dw = ndw;
            }
            Ops::storeU32(r, in);
            Ops::storeDwell(d, dw);
        } else {
            // Later tile: resume this sweep's horizontal state from
            // the carry slab the previous tile parked it in; the
            // tile's first column then runs the general recurrence.
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                inPrev[ts] =
                    Ops::loadU32(cb + (0 * kCarryStrip + ts) * stride);
                dwPrev[ts] =
                    Ops::loadU32(cb + (1 * kCarryStrip + ts) * stride);
                if constexpr (RefDel)
                    outPrev[ts] = Ops::loadU32(
                        cb + (2 * kCarryStrip + ts) * stride);
            }
            j0 = 0;
        }

        for (std::size_t j = j0; j < m; ++j) {
            Cost *SF_BATCH_RESTRICT rj = r + j * stride;
            std::uint8_t *SF_BATCH_RESTRICT dj = d + j * stride;
            const Vec refv = Ops::broadcast(std::int32_t(ref[j]));
            Vec in = Ops::loadU32(rj);
            Vec dw = Ops::loadDwell(dj);
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                Vec diag = inPrev[ts];
                if constexpr (UseBonus) {
                    Vec dwb = dwPrev[ts];
                    if constexpr (RefDel) // serial path re-caps here
                        dwb = Ops::minI32(dwb, capv);
                    diag = satSubV<Ops>(
                        diag, rewardV<Ops, Bonus>(dwb, bonusv,
                                                  bonus_shift));
                }
                // kgt = !take_diag; dwellBump computes the serial
                // engine's `take_diag ? 1 : min(dw + 1, cap)` (dwell
                // is stored pre-capped, so the min form is exact).
                const auto kgt = Ops::gtU32(diag, in);
                Vec best = Ops::minU32(diag, in);
                Vec ndw = Ops::dwellBump(dw, onev, capv, capm1v, kgt);
                if constexpr (RefDel) {
                    const auto lt = Ops::ltU32(outPrev[ts], best);
                    best = Ops::minU32(best, outPrev[ts]);
                    ndw = Ops::select(lt, onev, ndw);
                }
                const Vec out = satAddV<Ops>(
                    best, cellCostV<Ops, Squared>(qv[ts], refv));
                inPrev[ts] = in;
                dwPrev[ts] = dw;
                if constexpr (RefDel)
                    outPrev[ts] = out;
                in = out;
                dw = ndw;
            }
            Ops::storeU32(rj, in);
            Ops::storeDwell(dj, dw);
        }

        if (cb != nullptr) {
            // Park the horizontal state for this sweep's next tile.
            for (int t = 0; t < N; ++t) {
                const auto ts = std::size_t(t);
                Ops::storeU32(cb + (0 * kCarryStrip + ts) * stride,
                              inPrev[ts]);
                Ops::storeU32(cb + (1 * kCarryStrip + ts) * stride,
                              dwPrev[ts]);
                if constexpr (RefDel)
                    Ops::storeU32(cb + (2 * kCarryStrip + ts) * stride,
                                  outPrev[ts]);
            }
        }
    }
}

/**
 * One single-read strip: fold query rows i .. i+N-1 of one read in a
 * single sweep along its contiguous row, W columns per block.
 *
 * Without reference deletions S[i][j] needs only S[i-1][j] (vertical)
 * and the rewarded S[i-1][j-1] (diagonal).  The diagonal operand of a
 * whole block is computed on the *unshifted* input vector —
 * `pre = satSub(in, reward(dw))`, column j's own value — and then
 * moved up one lane with shiftInLane(), the block's lane 0 taking the
 * top lane of the previous block's `pre`.  So each strip row costs one
 * shift and carries one register (that `pre`) from block to block,
 * and rows t > 0 of the strip consume row t-1's fold output straight
 * from registers, as in foldRowBatch().
 *
 * Column 0 has no diagonal predecessor.  The first block starts every
 * carry at kCostMax, so min(diag, vert) there is the vertical cost,
 * and a lane-0 mask forces the serial engine's vertical dwell update
 * — which the compare alone would get wrong when vert is itself
 * saturated at kCostMax (diag <= vert would then pick the diagonal).
 *
 * A last partial block is staged through a W-wide stack copy, so no
 * load or store touches row or dwell memory past column m (SSE2 and
 * AVX2 have no masked byte loads); the lanes past m fold garbage that
 * nothing reads, because data only flows towards higher columns.
 */
template <class Ops, bool Squared, BonusMode Bonus, int N>
void
foldReadStrip(const NormSample *SF_BATCH_RESTRICT q,
              const std::int32_t *SF_BATCH_RESTRICT ref, std::size_t m,
              Cost *SF_BATCH_RESTRICT row,
              std::uint8_t *SF_BATCH_RESTRICT dwell, Cost bonus_unit,
              std::uint8_t cap)
{
    using Vec = typename Ops::Vec;
    constexpr std::size_t W = Ops::W;
    constexpr bool UseBonus = Bonus != BonusMode::Off;
    const Vec capv = Ops::broadcast(std::int32_t(cap));
    const Vec capm1v = Ops::broadcast(std::int32_t(cap) - 1);
    const Vec onev = Ops::broadcast(1);
    const Vec bonusv = Ops::broadcast(std::int32_t(bonus_unit));
    const Vec zero = Ops::broadcast(0);
    const Vec costMax = Ops::broadcast(-1);
    [[maybe_unused]] const int bonus_shift = bonusShift(bonus_unit);
    // Lane 0 only: the reference's first column.
    const auto col0 =
        Ops::gtU32(Ops::shiftInLane(zero, costMax), zero);

    Vec qv[std::size_t(N)], carry[std::size_t(N)];
    for (int t = 0; t < N; ++t) {
        qv[std::size_t(t)] = Ops::broadcast(std::int32_t(q[t]));
        carry[std::size_t(t)] = costMax;
    }

    const auto block = [&](auto lead, Cost *SF_BATCH_RESTRICT r,
                           std::uint8_t *SF_BATCH_RESTRICT d,
                           const std::int32_t *SF_BATCH_RESTRICT rf) {
        const Vec refv = Ops::loadI32(rf);
        Vec in = Ops::loadU32(r);
        Vec dw = Ops::loadDwell(d);
        for (int t = 0; t < N; ++t) {
            const auto ts = std::size_t(t);
            Vec pre = in;
            if constexpr (UseBonus)
                pre = satSubV<Ops>(
                    in, rewardV<Ops, Bonus>(dw, bonusv, bonus_shift));
            const Vec diag = Ops::shiftInLane(pre, carry[ts]);
            carry[ts] = pre;
            // As in foldRowBatch: kgt = !take_diag.
            const auto kgt = Ops::gtU32(diag, in);
            const Vec best = Ops::minU32(diag, in);
            Vec ndw = Ops::dwellBump(dw, onev, capv, capm1v, kgt);
            if constexpr (decltype(lead)::value)
                ndw = Ops::select(
                    col0, Ops::minI32(Ops::addI32(dw, onev), capv), ndw);
            in = satAddV<Ops>(best,
                              cellCostV<Ops, Squared>(qv[ts], refv));
            dw = ndw;
        }
        Ops::storeU32(r, in);
        Ops::storeDwell(d, dw);
    };

    // Stage a last partial block before the sweep, so one loop walks
    // every block: with the tail folded after the loop GCC kept the
    // carries on the stack, about 8% slower on AVX-512.
    const std::size_t full = m / W;
    const std::size_t j0 = full * W;
    const std::size_t blocks = full + (j0 < m ? 1 : 0);
    Cost tr[W] = {};
    std::uint8_t td[W] = {};
    for (std::size_t j = j0; j < m; ++j) {
        tr[j - j0] = row[j];
        td[j - j0] = dwell[j];
    }
    Cost *const rt = full > 0 ? row : tr;
    std::uint8_t *const dt = full > 0 ? dwell : td;
    block(std::true_type{}, rt, dt, ref);
    for (std::size_t b = 1; b < blocks; ++b) {
        const bool staged = b == full;
        block(std::false_type{}, staged ? tr : row + b * W,
              staged ? td : dwell + b * W, ref + b * W);
    }
    for (std::size_t j = j0; j < m; ++j) {
        row[j] = tr[j - j0];
        dwell[j] = td[j - j0];
    }
}

/** The single-read kernel: @p n rows as the deepest strips that fit
 * (Ops::kMaxReadStrip), then shallower ones for the remainder. */
template <class Ops, bool Squared, BonusMode Bonus>
void
foldRead(const NormSample *q, std::size_t n, const std::int32_t *ref,
         std::size_t m, Cost *row, std::uint8_t *dwell, Cost bonus_unit,
         std::uint8_t cap)
{
    std::size_t i = 0;
    if constexpr (Ops::kMaxReadStrip >= 4)
        for (; n - i >= 4; i += 4)
            foldReadStrip<Ops, Squared, Bonus, 4>(q + i, ref, m, row,
                                                  dwell, bonus_unit, cap);
    if constexpr (Ops::kMaxReadStrip >= 2)
        for (; n - i >= 2; i += 2)
            foldReadStrip<Ops, Squared, Bonus, 2>(q + i, ref, m, row,
                                                  dwell, bonus_unit, cap);
    for (; i < n; ++i)
        foldReadStrip<Ops, Squared, Bonus, 1>(q + i, ref, m, row, dwell,
                                              bonus_unit, cap);
}

/** Map runtime config switches to the right template instantiations. */
template <class Ops>
FoldRowFns
resolveFoldRow(const SdtwConfig &config, bool use_bonus)
{
    const bool sq = config.metric == CostMetric::SquaredDifference;
    const bool rd = config.allowReferenceDeletion;
    const auto bonus_unit = static_cast<Cost>(config.matchBonus + 0.5);
    const bool pow2 = use_bonus && bonus_unit != 0 &&
                      (bonus_unit & (bonus_unit - 1)) == 0;
    const BonusMode mode = !use_bonus ? BonusMode::Off
                           : pow2     ? BonusMode::Shift
                                      : BonusMode::Mul;

    const auto pick = [](auto squared, auto refdel, auto bonus) {
        constexpr bool S = decltype(squared)::value;
        constexpr bool R = decltype(refdel)::value;
        constexpr BonusMode B = decltype(bonus)::value;
        // Strip depth is capped per backend: deeper strips carry more
        // per-row register state, and past the architectural register
        // budget the spills cost more than the amortisation saves.
        FoldRowFns fns;
        fns.fold1 = &foldRowBatch<Ops, S, R, B, 1>;
        if constexpr (Ops::kMaxStrip >= 2)
            fns.fold2 = &foldRowBatch<Ops, S, R, B, 2>;
        if constexpr (Ops::kMaxStrip >= 4)
            fns.fold4 = &foldRowBatch<Ops, S, R, B, 4>;
        // One lane has nothing to vectorise along the reference: the
        // scalar backend keeps the serial engine for narrow dispatches.
        if constexpr (!R && Ops::W > 1)
            fns.foldRead = &foldRead<Ops, S, B>;
        return fns;
    };
    const auto with_bonus = [&](auto squared, auto refdel) {
        switch (mode) {
        case BonusMode::Off:
            return pick(squared, refdel,
                        std::integral_constant<BonusMode,
                                               BonusMode::Off>{});
        case BonusMode::Mul:
            return pick(squared, refdel,
                        std::integral_constant<BonusMode,
                                               BonusMode::Mul>{});
        default:
            return pick(squared, refdel,
                        std::integral_constant<BonusMode,
                                               BonusMode::Shift>{});
        }
    };
    const auto with_refdel = [&](auto squared) {
        return rd ? with_bonus(squared, std::true_type{})
                  : with_bonus(squared, std::false_type{});
    };
    return sq ? with_refdel(std::true_type{})
              : with_refdel(std::false_type{});
}

// Per-backend resolvers, defined in their own translation units so
// each can be compiled with exactly the ISA flags it needs and picked
// at runtime by CPU dispatch (see batch.cpp).
FoldRowFns resolveFoldRowScalar(const SdtwConfig &config, bool use_bonus);
#if defined(__SSE2__)
FoldRowFns resolveFoldRowSse2(const SdtwConfig &config, bool use_bonus);
#endif
#if defined(SF_BATCH_HAVE_AVX2)
FoldRowFns resolveFoldRowAvx2(const SdtwConfig &config, bool use_bonus);
#endif
#if defined(SF_BATCH_HAVE_AVX512)
FoldRowFns resolveFoldRowAvx512(const SdtwConfig &config, bool use_bonus);
#endif

} // namespace sf::sdtw::detail

#endif // SF_SDTW_BATCH_KERNEL_HPP
