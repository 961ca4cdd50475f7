#ifndef SF_HW_ASIC_BACKEND_HPP
#define SF_HW_ASIC_BACKEND_HPP

/**
 * @file
 * Modelled-ASIC decision backend (paper §5, §7.1-§7.2).
 *
 * Implements the stream::DecisionBackend seam: decisions are folded
 * through the same quantised SIMD kernel the software backend uses —
 * scores, decisions and checkpoint states stay bit-identical — while
 * every decision's *latency* is replaced by an analytical cycle model
 * of the systolic array executing the same DP work, and a power/
 * energy/checkpoint-traffic ledger accumulates alongside.  Running a
 * session with this backend therefore reproduces the software run's
 * decision log exactly, with the latency percentiles and energy of
 * the modelled chip — the paper's software-vs-ASIC side-by-side from
 * one execution.
 *
 * The cycle model covers both dataflows of a 1D array of D PEs
 * against an M-sample reference, folding L new query rows:
 *
 *  - normalisation pipeline: 2L cycles (mean/MAD pass + scale pass);
 *  - QueryStationary: the query chunk is pinned to PEs, the reference
 *    streams through; L > D takes p = ceil(L/D) passes, each
 *    chunk + M - 1 cycles (SystolicArray::passCycles), total
 *    L + p(M-1); the DP row carries through DRAM between passes
 *    ((p-1) * 2M cells written + read);
 *  - ReferenceStationary: the reference is tiled across the array in
 *    t = ceil(M/D) tiles and the query streams through each, one
 *    L + tile - 1 cycle pass per tile, total tL + M - t cycles with an
 *    L-deep column carry between tiles ((t-1) * 2L cells);
 *  - multi-stage checkpointing (§4.6): a resumed stream reads its
 *    M-cell row from DRAM, an undecided stream writes it back.
 *
 * With the Table 4 design point (D = 2000, 2.5 GHz) a 1600-sample
 * chunk against the ~97k-sample SARS-CoV-2 reference models ~41 us —
 * inside the paper's 43 us decision budget.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "stream/decision_service.hpp"

namespace sf::sdtw {
class BatchSdtw;
}

namespace sf::hw {

/** Per-decision cycle/traffic breakdown of the modelled array. */
struct AsicDecisionModel
{
    std::uint64_t cycles = 0;          //!< normalise + array cycles
    std::uint64_t passes = 0;          //!< array passes / tiles walked
    std::uint64_t checkpointBytes = 0; //!< DRAM carry + resume/save
};

/**
 * Pure cycle model for one decision: @p rows_folded new query rows
 * against an @p ref_samples reference on a @p spec array.  @p resumed
 * charges the checkpoint-row read, @p checkpointed the write-back.
 * Zero rows folded (a chunk that crossed no stage boundary) models
 * zero cycles.  Exposed for tests and the design-space sweep.
 */
AsicDecisionModel modelDecision(const stream::AsicSpec &spec,
                                std::uint64_t rows_folded,
                                std::size_t ref_samples, bool resumed,
                                bool checkpointed);

/** DecisionBackend that charges modelled-ASIC latency per decision. */
class AsicBackend final : public stream::DecisionBackend
{
  public:
    /**
     * Fatals when @p config is not implementable by the hardware
     * (non-absolute-difference metric or reference deletions, §4.7)
     * or @p spec is degenerate — construct on the main thread.
     */
    AsicBackend(const stream::AsicSpec &spec,
                const sdtw::SdtwConfig &config,
                std::size_t lane_capacity, bool lane_batching);
    ~AsicBackend() override;

    stream::DecisionBackendKind
    kind() const override
    {
        return stream::DecisionBackendKind::Asic;
    }
    void fold(std::vector<stream::DecisionRequest> &batch) override;
    const sdtw::FoldStats &foldStats() const override;
    stream::ModeledHwStats
    modeledStats() const override
    {
        return stats_;
    }

    const stream::AsicSpec &spec() const { return spec_; }
    /** Modelled tile power at the spec clock (Watts). */
    double tilePowerW() const { return powerW_; }

  private:
    stream::AsicSpec spec_;
    double powerW_ = 0.0;
    bool laneBatching_ = true;
    std::unique_ptr<sdtw::BatchSdtw> kernel_;
    stream::ModeledHwStats stats_{};
    /** Pre-fold rowsFolded per request, to recover each decision's
        incremental DP work inside the latency hook. */
    std::vector<std::uint64_t> preRows_;
};

} // namespace sf::hw

#endif // SF_HW_ASIC_BACKEND_HPP
