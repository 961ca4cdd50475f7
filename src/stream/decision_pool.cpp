#include "stream/decision_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "sdtw/batch.hpp"

namespace sf::stream {

DecisionPool::DecisionPool(unsigned workers, std::size_t queue_capacity,
                           std::size_t dispatch_batch,
                           std::size_t stat_burst, bool lane_batching)
    : workers_(workers != 0
                   ? workers
                   : std::max(1u, std::thread::hardware_concurrency())),
      dispatchBatch_(dispatch_batch), laneBatching_(lane_batching),
      queue_(queue_capacity, stat_burst)
{
    if (dispatchBatch_ == 0)
        fatal("DecisionPool dispatch batch must be positive");
}

DecisionPool::~DecisionPool() { shutdown(); }

std::uint32_t
DecisionPool::addSession(QosClass qos, DecisionBackendKind backend)
{
    if (started_)
        panic("DecisionPool::addSession after start()");
    kindInUse_[std::size_t(backend)] = true;
    return queue_.registerSession(qos);
}

void
DecisionPool::start(const sdtw::SdtwConfig &kernel, const AsicSpec &asic)
{
    if (started_)
        panic("DecisionPool::start called twice");
    started_ = true;

    // Each worker owns one backend per kind in use: the software one
    // wraps the per-worker lane-batch kernel sized to its dispatch
    // pull, the modelled-ASIC one folds through the same kernel and
    // substitutes cycle-model latency.
    const std::size_t lanes = std::max<std::size_t>(
        dispatchBatch_, sdtw::BatchSdtw::kDefaultSerialCutover);
    backends_.resize(workers_);
    for (BackendSet &set : backends_)
        for (std::size_t b = 0; b < kDecisionBackendKinds; ++b)
            if (kindInUse_[b])
                set[b] = makeDecisionBackend(DecisionBackendKind(b),
                                             asic, kernel, lanes,
                                             laneBatching_);

    threads_.reserve(workers_);
    for (unsigned w = 0; w < workers_; ++w)
        threads_.emplace_back(
            [this, &set = backends_[w]] { workerMain(set); });
}

void
DecisionPool::shutdown()
{
    queue_.close();
    for (std::thread &thread : threads_)
        if (thread.joinable())
            thread.join();
}

void
DecisionPool::workerMain(BackendSet &backends)
{
    // A mixed pool interleaves software and modelled-ASIC sessions on
    // the same queue: each dispatch is partitioned by the backend its
    // requests' sessions selected (stable, so same-classifier
    // requests keep their queue order and still group into one lane
    // batch) and each partition folds on that backend's engine.
    std::array<sdtw::FoldStats, kDecisionBackendKinds> prev{};
    std::vector<DecisionRequest> batch;
    std::vector<DecisionRequest> part;
    QosClass served = QosClass::Research;
    while (queue_.popBatch(batch, dispatchBatch_, &served,
                           kDispatchLinger)) {
        dispatches_.fetch_add(1, std::memory_order_relaxed);
        dispatchedRequests_.fetch_add(batch.size(),
                                      std::memory_order_relaxed);
        dispatchesByClass_[std::size_t(served)].fetch_add(
            1, std::memory_order_relaxed);
        for (std::size_t b = 0; b < kDecisionBackendKinds; ++b) {
            part.clear();
            for (DecisionRequest &req : batch)
                if (std::size_t(req.backend) == b)
                    part.push_back(std::move(req));
            if (part.empty())
                continue;
            DecisionBackend *backend = backends[b].get();
            if (backend == nullptr)
                panic("dispatch carries a request for backend '%s' "
                      "but no session registered it",
                      decisionBackendName(DecisionBackendKind(b)));
            backend->fold(part);
            requestsByBackend_[b].fetch_add(part.size(),
                                            std::memory_order_relaxed);
            // Publish lane telemetry per dispatch (not at thread
            // exit) so a mid-run snapshot sees live occupancy.
            const sdtw::FoldStats &fs = backend->foldStats();
            laneJobs_.fetch_add(fs.laneJobs - prev[b].laneJobs,
                                std::memory_order_relaxed);
            laneSlots_.fetch_add(fs.laneSlots - prev[b].laneSlots,
                                 std::memory_order_relaxed);
            prev[b] = fs;
        }
        batch.clear();
    }
}

PoolCounters
DecisionPool::counters() const
{
    PoolCounters c;
    c.dispatches = dispatches_.load(std::memory_order_relaxed);
    c.dispatchedRequests =
        dispatchedRequests_.load(std::memory_order_relaxed);
    for (std::size_t q = 0; q < kQosClasses; ++q)
        c.dispatchesByClass[q] =
            dispatchesByClass_[q].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kDecisionBackendKinds; ++b)
        c.requestsByBackend[b] =
            requestsByBackend_[b].load(std::memory_order_relaxed);
    c.laneJobs = laneJobs_.load(std::memory_order_relaxed);
    c.laneSlots = laneSlots_.load(std::memory_order_relaxed);
    return c;
}

ModeledHwStats
DecisionPool::modeledStats() const
{
    ModeledHwStats total;
    for (const BackendSet &set : backends_)
        for (const auto &backend : set)
            if (backend != nullptr)
                total.accumulate(backend->modeledStats());
    return total;
}

} // namespace sf::stream
