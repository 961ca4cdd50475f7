#ifndef SF_STREAM_DECISION_POOL_HPP
#define SF_STREAM_DECISION_POOL_HPP

/**
 * @file
 * The one worker pool that executes decision requests.
 *
 * ReadUntilSession::run() builds a pool of one session;
 * fleet::FleetOrchestrator registers many sessions on one pool so the
 * requests of different flowcells fold into the same SIMD lane
 * batches.  Either way the event loop submits DecisionRequests — a
 * submit blocks under backpressure, so an outrunning session is
 * throttled at capture time and chunks are never dropped — and the
 * workers run one loop: popBatch from the QoS queue, partition the
 * dispatch by decision backend, fold each partition.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "stream/decision_backend.hpp"
#include "stream/decision_service.hpp"
#include "stream/qos_queue.hpp"

namespace sf::stream {

/** Monotone dispatch telemetry of a pool, summed over its workers. */
struct PoolCounters
{
    std::uint64_t dispatches = 0;         //!< worker batch pulls
    std::uint64_t dispatchedRequests = 0; //!< requests across them
    /** Dispatches served per QoS class (index = QosClass). */
    std::array<std::uint64_t, kQosClasses> dispatchesByClass{};
    /** Requests folded per backend (index = DecisionBackendKind). */
    std::array<std::uint64_t, kDecisionBackendKinds> requestsByBackend{};
    /** SIMD lane telemetry: laneJobs/laneSlots = occupancy. */
    std::uint64_t laneJobs = 0;
    std::uint64_t laneSlots = 0;

    /** Decisions per dispatch (0 before the first dispatch). */
    double
    meanBatchSize() const
    {
        return dispatches > 0
                   ? double(dispatchedRequests) / double(dispatches)
                   : 0.0;
    }
};

/**
 * Shared QoS queue plus worker threads, each owning one decision
 * backend per kind a registered session selected.  Usage: construct,
 * addSession() every session, start(), submit() from the sessions'
 * event loops, shutdown().  Counters and per-session queue gauges may
 * be read from any thread at any time.
 */
class DecisionPool
{
  public:
    /**
     * Batching linger: once a worker sees its first queued request it
     * waits up to this long for the batch to fill before dispatching.
     * Sessions re-queue within microseconds of a completed dispatch;
     * without the linger a worker shreds those co-arriving requests
     * into ragged sub-width serial folds.  Pure wall-clock tuning —
     * decision logs are unaffected.
     */
    static constexpr std::chrono::microseconds kDispatchLinger{250};

    /**
     * @param workers classifier threads (0 = hardware concurrency)
     * @param queue_capacity shared queue capacity; > 0
     * @param dispatch_batch max requests per worker pull; > 0
     * @param stat_burst Research starvation bound (QosQueue)
     * @param lane_batching fold dispatches as SIMD lane batches
     */
    DecisionPool(unsigned workers, std::size_t queue_capacity,
                 std::size_t dispatch_batch, std::size_t stat_burst,
                 bool lane_batching);
    ~DecisionPool();

    DecisionPool(const DecisionPool &) = delete;
    DecisionPool &operator=(const DecisionPool &) = delete;

    /**
     * Register a session before start(); returns the id its requests
     * carry as DecisionRequest::sessionId.  @p backend is the engine
     * its requests fold on.
     */
    std::uint32_t addSession(QosClass qos, DecisionBackendKind backend);

    /**
     * Build every worker's backends on THIS thread — a configuration
     * a backend cannot implement fatals here, before any worker
     * exists — and start the workers.  @p kernel is the SdtwConfig
     * every registered classifier shares; @p asic is consulted only
     * if a session selected the Asic backend.
     */
    void start(const sdtw::SdtwConfig &kernel, const AsicSpec &asic);

    /**
     * Enqueue @p request for its session (request.sessionId).  Blocks
     * while the queue is full; returns
     * false only after shutdown(), when no completion will arrive.
     */
    bool
    submit(DecisionRequest request)
    {
        const std::uint32_t session = request.sessionId;
        return queue_.push(session, std::move(request));
    }

    /** Close the queue and join the workers (idempotent).  Queued
        requests are still folded before the workers exit. */
    void shutdown();

    /** Requests of @p session queued right now. */
    std::size_t depth(std::uint32_t session) const
    {
        return queue_.depth(session);
    }

    /** Pushes of @p session that blocked on backpressure. */
    std::uint64_t stalls(std::uint32_t session) const
    {
        return queue_.stalls(session);
    }

    /** Dispatch telemetry so far; live while the pool runs. */
    PoolCounters counters() const;

    /** Modelled-hardware ledger summed over every worker's backends;
        call after shutdown(). */
    ModeledHwStats modeledStats() const;

  private:
    /** One worker's engines, one per backend kind a session selected
        (null for kinds nobody uses). */
    using BackendSet = std::array<std::unique_ptr<DecisionBackend>,
                                  kDecisionBackendKinds>;

    void workerMain(BackendSet &backends);

    unsigned workers_ = 1;
    std::size_t dispatchBatch_ = 1;
    bool laneBatching_ = true;
    QosQueue<DecisionRequest> queue_;
    std::array<bool, kDecisionBackendKinds> kindInUse_{};
    std::vector<BackendSet> backends_;
    bool started_ = false;

    std::atomic<std::uint64_t> dispatches_{0};
    std::atomic<std::uint64_t> dispatchedRequests_{0};
    std::array<std::atomic<std::uint64_t>, kQosClasses>
        dispatchesByClass_{};
    std::array<std::atomic<std::uint64_t>, kDecisionBackendKinds>
        requestsByBackend_{};
    std::atomic<std::uint64_t> laneJobs_{0};
    std::atomic<std::uint64_t> laneSlots_{0};
    /** Last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace sf::stream

#endif // SF_STREAM_DECISION_POOL_HPP
