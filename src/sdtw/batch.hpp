#ifndef SF_SDTW_BATCH_HPP
#define SF_SDTW_BATCH_HPP

/**
 * @file
 * Lane-batched sDTW: align up to 32 independent reads per inner-loop
 * iteration (paper §5.1's pore-parallel tiles, done with SIMD lanes).
 *
 * BatchSdtw has two explicit-intrinsics kernels and picks per
 * dispatch (planInterleaved()):
 *  - the *interleaved* kernel fills vector lanes with different
 *    reads: B in-flight alignments share interleaved
 *    `[column][lane]` cost/dwell buffers, and one row fold advances
 *    all of them by one query sample.  Every lane is an independent
 *    alignment, so the inner loop is branch-free and fully
 *    pipelined — but a dispatch of b reads pays for roundup(b, W)
 *    lanes;
 *  - the *single-read* kernel (configs without reference deletions,
 *    paper §4.7) folds one read at a time, vectorised along the
 *    reference: dropping the S[i][j-1] move leaves row i depending
 *    only on row i-1, so W consecutive columns fold per instruction
 *    and no lane is ever idle.
 * The plan is a speed rule: whole vector groups take the interleaved
 * kernel, and so does a remainder (or a dispatch narrower than one
 * group) of at least b* reads, padded to one more group — b* being
 * the width at which the idle padded lanes cost less than the
 * single-read kernel's lower rate (see planInterleaved()).  Narrower
 * remainders take the single-read kernel, at every reference length.
 * Reference-deletion configs keep the interleaved kernel above the
 * serial cutover and the serial engine (sdtw/engine.hpp) below it, and
 * so does the 1-lane scalar backend: one lane has nothing to vectorise
 * along the reference, and the serial engine, which the compiler
 * vectorises along it, is the faster one-read kernel there.
 *
 * Ragged batches are first-class: lanes have per-read query lengths,
 * retire as soon as their samples are exhausted, and are refilled from
 * the pending queue mid-flight, so occupancy stays high even when
 * reads decide at different stages.  A lane is loaded from / drained
 * back to a plain QuantSdtw::State, so checkpointed streams can enter
 * and leave a batch between chunks — this is what lets the kernel
 * slot underneath ClassifierStream and the streaming worker pool.
 *
 * The backend (AVX-512 / AVX2 / SSE2 / scalar) is picked by runtime
 * CPU dispatch, so binaries built with SF_KERNEL_NATIVE=OFF still run
 * everywhere; SF_SDTW_SIMD=scalar|sse2|avx2|avx512 forces a backend.
 * Both kernels on every backend are bit-identical to the serial
 * QuantSdtw engine for every configuration (tests/test_batch.cpp pins
 * this).
 *
 * Column tiling keeps the interleaved kernel cache-resident when its
 * working set outgrows L2 (several vector groups in flight, or a
 * genome-scale reference): a 16-lane batch against a ~97k-column
 * reference carries ~8 MB of DP state, so an untiled strip sweep
 * would stream it from DRAM every 4 query rows.  The driver instead folds a *block* of query
 * rows per round and walks the reference in cache-sized column tiles,
 * finishing every sweep of the block on one tile before moving to the
 * next — each tile's cost/dwell columns are touched once per block
 * instead of once per sweep, so the working set is the tile, not the
 * reference.  Per-sweep horizontal register state is carried across
 * tile edges (see batch_kernel.hpp), making the tiled walk bit-exact
 * vs the untiled one.  The tile width defaults to a heuristic from
 * the detected per-core L2 size; SF_SDTW_TILE_COLS (or setTileCols())
 * overrides it, and a value >= the reference length disables tiling.
 *
 * The interleaved scratch is one tile wide.  Each lane's DP row lives
 * in its QuantSdtw::State throughout: at a tile's entry the in-flight
 * lanes' columns of that tile are gathered into the `[column][lane]`
 * scratch, and at its exit scattered back, once per row block.  A
 * kernel instance therefore holds W × tile bytes of interleaved state
 * (scratchBytes()), never W × m, whatever the reference length.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sdtw/batch_kernel.hpp"
#include "sdtw/config.hpp"
#include "sdtw/engine.hpp"

namespace sf::sdtw {

/** SIMD instruction set a BatchSdtw kernel executes with. */
enum class SimdBackend {
    Scalar, //!< portable reference (1 lane per op)
    Sse2,   //!< 4 epi32 lanes per op, baseline x86-64
    Avx2,   //!< 8 epi32 lanes per op
    Avx512, //!< 16 epi32 lanes per op (F+BW+VL)
};

/** Human-readable backend name ("avx2", ...). */
const char *simdBackendName(SimdBackend backend);

/** Whether @p backend is compiled in AND supported by this CPU. */
bool simdBackendAvailable(SimdBackend backend);

/** Cost lanes one vector instruction of @p backend carries. */
std::size_t simdLaneWidth(SimdBackend backend);

/**
 * Best available backend, honouring an SF_SDTW_SIMD environment
 * override (fatal when the override names an unavailable backend).
 */
SimdBackend detectSimdBackend();

/**
 * One read's slot in a batched fold: the checkpointed DP state it
 * resumes from (empty = fresh subsequence start, exactly like the
 * serial engine) and the query samples to fold this round.  After
 * processMany() the state holds the updated row/dwell checkpoint and
 * `result` the same cost/refEnd/rows the serial engine would report.
 */
struct BatchLane
{
    QuantSdtw::State *state = nullptr;   //!< in/out checkpoint
    std::span<const NormSample> query{}; //!< samples to fold
    QuantSdtw::Result result{};          //!< out: post-fold summary
};

/**
 * SIMD-slot utilisation counters, accumulated across processMany()
 * calls.  On a W-lane backend, b jobs folded by the interleaved
 * kernel pay for roundup(b, W) vector slots; b jobs folded by the
 * single-read kernel pay for b slots (their slots are their jobs:
 * each read fills every lane with its own columns); b jobs folded by
 * the serial engine, which reference-deletion configs and the scalar
 * backend fall back to below the cutover, pay for b * W slots (a
 * W-wide machine folding one read at a time without SIMD uses 1/W of
 * its lanes).  The ratio laneJobs/laneSlots is therefore the fraction
 * of the SIMD width doing useful work — the "lane occupancy" the fleet
 * stats snapshot and BENCH_fleet.json report.  It reads below 1
 * whenever the plan pads a remainder of at least b* reads to a whole
 * interleaved group (planInterleaved()): the padding lanes are paid
 * for because a padded group still outruns single-read folds.  Counters are plain
 * integers (the hot path stays float-free); divide outside the kernel.
 */
struct FoldStats
{
    /** processMany calls that ran the interleaved kernel. */
    std::uint64_t batchedCalls = 0;
    /** Calls that did not: every job went one read at a time, to the
        single-read kernel or the serial engine. */
    std::uint64_t serialCalls = 0;
    std::uint64_t laneJobs = 0;     //!< lanes that carried a real read
    std::uint64_t laneSlots = 0;    //!< vector slots paid for them
    /** Column tiles walked by batched row blocks (1 per block when
        the whole reference fits one tile — i.e. the untiled path). */
    std::uint64_t colTiles = 0;
    /** Row blocks folded (each walks colTiles/rowBlocks tiles). */
    std::uint64_t rowBlocks = 0;
};

/**
 * Lane-batched quantised sDTW kernel.
 *
 * Holds the interleaved DP scratch, so one instance should live per
 * worker thread and be reused across calls (buffers are grown once
 * and kept).  Not thread-safe; states passed to one call must be
 * distinct objects.
 */
class BatchSdtw
{
  public:
    /** Default in-flight lanes (2-4 vector groups per backend). */
    static constexpr std::size_t kDefaultLaneCapacity = 32;

    /**
     * Floor of the serial-vs-interleaved crossover for configs with
     * reference deletions and for the scalar backend (neither has a
     * single-read kernel).
     * The effective default scales with the backend: the interleaved
     * kernel always folds whole vector groups, so b jobs on a W-lane
     * backend pay for roundup(b, W) lanes of work — below roughly 3/4
     * of a group the wasted lanes cost more than the SIMD gain and
     * the serial engine wins.  The constructor therefore sets the
     * cutover to max(kDefaultSerialCutover, 3 * laneWidth() / 4);
     * setSerialCutover() overrides.  On the SIMD backends, configs
     * without reference deletions ignore the cutover
     * (planInterleaved() splits them by b*) unless it is forced to 0
     * or 1.
     */
    static constexpr std::size_t kDefaultSerialCutover = 4;

    /**
     * Query rows folded per interleaved block.  The block bounds how
     * many sweeps' worth of carry state a tile edge parks, and each
     * tile's columns are gathered from the lanes'
     * checkpoint rows into the scratch and scattered back once per
     * block.  At 256 rows that transpose cost ~5% of the tiled fold's
     * cells/s; at 512 it is within run-to-run noise (~2%), while the
     * carry slabs (768 B per 4-row sweep at 16 lanes, touched only at
     * tile edges) and the query block stay under 256 KB per kernel
     * instance.  1024 rows measured no faster and cost flowcell-lambda
     * another ~1 MB of peak RSS over its four oracle threads.
     * Retire/refill happens at block edges, which is semantically
     * identical because a block never exceeds the in-flight lanes'
     * minimum remaining samples.
     */
    static constexpr std::size_t kMaxBlockRows = 512;

    explicit BatchSdtw(SdtwConfig config = hardwareConfig(),
                       std::size_t lane_capacity = kDefaultLaneCapacity,
                       SimdBackend backend = detectSimdBackend());

    /**
     * Fold every lane's query into its state against the shared
     * @p reference, ragged lengths and all.  Equivalent to calling
     * QuantSdtw::process(lane.query, reference, *lane.state) per lane
     * — same costs, same refEnd, same checkpointed row/dwell, bit for
     * bit — but up to laneCapacity() lanes advance per row fold, and
     * retired lanes are refilled from the remaining ones.
     */
    void processMany(std::span<BatchLane> lanes,
                     std::span<const NormSample> reference);

    /**
     * Serial-vs-interleaved crossover threshold of reference-deletion
     * configs and the scalar backend; 0 or 1 forces every job of
     * every config through the interleaved kernel (used by tests and
     * benches).
     */
    void setSerialCutover(std::size_t min_lanes);

    /**
     * How many of a dispatch's @p lanes jobs processMany() folds with
     * the interleaved kernel; it passes the first that many, and the
     * rest go one read at a time — to the single-read kernel, or to
     * the serial engine for reference-deletion configs and the scalar
     * backend.  The rule:
     *  - serial cutover forced to 0 or 1: all of them;
     *  - reference deletions, or the scalar backend: all of them at or
     *    above the cutover, none below;
     *  - otherwise a speed rule: whole vector groups, plus the
     *    remainder padded to one more group when it holds at least
     *    interleaveMinLanes() reads (so a dispatch narrower than that
     *    goes single-read entirely).  It holds at every reference
     *    length: the interleaved scratch is one tile, not W × m.
     */
    std::size_t planInterleaved(std::size_t lanes) const;

    /**
     * b*, the break-even width of planInterleaved() on this backend:
     * the fewest reads that fold faster padded to one interleaved
     * vector group than one at a time single-read,
     * ceil(W × r_single ÷ r_interleaved) from a per-backend table of
     * measured kernel rates (SIZE_MAX on the scalar backend).
     */
    std::size_t interleaveMinLanes() const { return interleaveMin_; }

    /**
     * Column-tile width override: 0 restores the auto heuristic
     * (sized so one tile's interleaved cost/dwell scratch fills about
     * an eighth of the detected per-core L2), any other value forces
     * that many columns per tile — tests force tiny tiles, benches
     * force SIZE_MAX for an untiled A/B.  The SF_SDTW_TILE_COLS
     * environment knob sets the same override at construction.
     */
    void setTileCols(std::size_t cols);
    /** The configured override (0 = auto heuristic). */
    std::size_t tileCols() const { return tileCols_; }
    /**
     * Tile width a batched fold of @p lanes in-flight lanes against a
     * @p reference_len-column reference will actually use, override
     * and heuristic applied (== reference_len when untiled).
     */
    std::size_t planTileCols(std::size_t reference_len,
                             std::size_t lanes) const;

    const SdtwConfig &config() const { return engine_.config(); }
    SimdBackend backend() const { return backend_; }
    /** Lanes per vector instruction. */
    std::size_t laneWidth() const { return width_; }
    /** Maximum lanes in flight (rounded up to a laneWidth multiple). */
    std::size_t laneCapacity() const { return capacity_; }
    /** Cumulative SIMD-slot utilisation since construction. */
    const FoldStats &foldStats() const { return foldStats_; }
    /**
     * Bytes held by the interleaved cost+dwell scratch: at most
     * width × planTileCols() × 5 for the widest fold so far, however
     * long the reference.
     */
    std::size_t scratchBytes() const
    {
        return rows_.capacity() * sizeof(Cost) + dwell_.capacity();
    }

  private:
    void validate(std::span<BatchLane> lanes,
                  std::span<const NormSample> reference) const;
    void runBatched(std::span<BatchLane> lanes,
                    std::span<const NormSample> reference);
    void runSingle(std::span<BatchLane> lanes,
                   std::span<const NormSample> reference);
    /** Write the subsequence free-start row for query sample @p q0
        into a fresh @p state, exactly as the serial engine does. */
    void startFresh(QuantSdtw::State &state, NormSample q0,
                    std::span<const NormSample> reference) const;

    QuantSdtw engine_; //!< validates config; serial fallback path
    SimdBackend backend_;
    std::size_t width_ = 1;
    std::size_t capacity_ = kDefaultLaneCapacity;
    std::size_t serialCutover_ = kDefaultSerialCutover;
    std::size_t tileCols_ = 0; //!< column-tile override, 0 = auto
    std::size_t interleaveMin_ = SIZE_MAX; //!< b*, see planInterleaved
    FoldStats foldStats_{};
    Cost bonusUnit_ = 0;
    detail::FoldRowFns fold_{};

    // Interleaved `[column][lane]` scratch for one column tile, grown
    // on demand.
    std::vector<Cost> rows_;
    std::vector<std::uint8_t> dwell_;
    std::vector<std::int32_t> qlane_;
    // Per-sweep tile-edge register carry slabs (see batch_kernel.hpp).
    std::vector<Cost> carry_;
    // The reference widened for the single-read kernel, zero-padded
    // to whole vector blocks.
    std::vector<std::int32_t> refWide_;
};

} // namespace sf::sdtw

#endif // SF_SDTW_BATCH_HPP
