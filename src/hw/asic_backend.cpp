#include "hw/asic_backend.hpp"

#include "common/logging.hpp"
#include "hw/asic_model.hpp"
#include "hw/systolic.hpp"
#include "sdtw/batch.hpp"

namespace sf::hw {

AsicDecisionModel
modelDecision(const stream::AsicSpec &spec, std::uint64_t rows_folded,
              std::size_t ref_samples, bool resumed, bool checkpointed)
{
    AsicDecisionModel model;
    const std::uint64_t L = rows_folded;
    const std::uint64_t M = ref_samples;
    const std::uint64_t D = spec.arrayDim;
    if (L == 0 || M == 0)
        return model; // no stage boundary crossed: no DP work
    constexpr std::uint64_t kCell = SystolicArray::kCheckpointBytesPerCell;
    // Normalisation pipeline, then one SystolicArray pass per chunk
    // the array holds; a single pass is AsicModel::classifyCycles.
    model.cycles = 2 * L;
    if (spec.dataflow == stream::AsicDataflow::QueryStationary) {
        // p passes: p - 1 full D-row query chunks, then the rest.
        const std::uint64_t p = (L + D - 1) / D;
        model.passes = p;
        model.cycles += (p - 1) * SystolicArray::passCycles(D, M) +
                        SystolicArray::passCycles(L - (p - 1) * D, M);
        // The M-cell DP row round-trips DRAM between passes.
        model.checkpointBytes += (p - 1) * 2 * M * kCell;
    } else {
        // t reference tiles: t - 1 full D-sample tiles, then the
        // rest, with an L-deep column carry between tiles.
        const std::uint64_t t = (M + D - 1) / D;
        model.passes = t;
        model.cycles += (t - 1) * SystolicArray::passCycles(L, D) +
                        SystolicArray::passCycles(L, M - (t - 1) * D);
        model.checkpointBytes += (t - 1) * 2 * L * kCell;
    }
    // Multi-stage checkpointing (§4.6): resume reads the saved row,
    // an undecided stream writes the updated row back.
    if (resumed)
        model.checkpointBytes += M * kCell;
    if (checkpointed)
        model.checkpointBytes += M * kCell;
    return model;
}

AsicBackend::AsicBackend(const stream::AsicSpec &spec,
                         const sdtw::SdtwConfig &config,
                         std::size_t lane_capacity, bool lane_batching)
    : spec_(spec), laneBatching_(lane_batching)
{
    // Scores come from the software kernel either way, but modelling
    // hardware for a configuration it cannot execute would be a lie.
    if (const char *error = stream::asicConfigError(spec_, config))
        fatal("AsicBackend: %s", error);
    // Table 4 power for a one-tile chip of this array size, scaled
    // linearly from the synthesised 2.5 GHz operating point.
    powerW_ = AsicModel(spec_.arrayDim, 1).oneTilePowerW() *
              (spec_.clockGhz / AsicModel::kClockGhz);
    kernel_ =
        std::make_unique<sdtw::BatchSdtw>(config, lane_capacity);
}

AsicBackend::~AsicBackend() = default;

void
AsicBackend::fold(std::vector<stream::DecisionRequest> &batch)
{
    // Snapshot each stream's fold progress before the kernel runs so
    // the latency hook can recover the incremental DP work (and
    // whether the stream resumed a checkpoint) per decision.
    preRows_.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        preRows_[i] = batch[i].stream->rowsFolded;

    const stream::DecisionRequest *base = batch.data();
    const auto latency = [this,
                          base](const stream::DecisionRequest &req) {
        // The hook runs after req's fold but before its board slot
        // completes, so the worker still owns the stream exclusively.
        const std::size_t i = std::size_t(&req - base);
        const std::uint64_t rows = req.stream->rowsFolded - preRows_[i];
        const AsicDecisionModel model = modelDecision(
            spec_, rows, req.classifier->reference().size(),
            preRows_[i] > 0, !req.stream->decided);
        const double us =
            double(model.cycles) / (spec_.clockGhz * 1e3);
        stats_.decisions += 1;
        stats_.cycles += model.cycles;
        stats_.arrayPasses += model.passes;
        stats_.checkpointBytes += model.checkpointBytes;
        stats_.modeledLatencyUsTotal += us;
        stats_.energyJoules += powerW_ * us * 1e-6;
        return us;
    };
    foldDispatch(batch, *kernel_, laneBatching_, latency);
}

const sdtw::FoldStats &
AsicBackend::foldStats() const
{
    return kernel_->foldStats();
}

} // namespace sf::hw
