/**
 * @file
 * Tests for QosQueue — the one request queue of the decision
 * pool and the backpressure point of the streaming engine.  This
 * suite carries the `quick` ctest label, so it runs in every check.sh
 * mode including the TSan leg (scripts/check.sh --tsan), where the
 * contention tests double as race detectors: many producers and
 * consumers hammering a tiny queue, close() racing blocked peers, and
 * drain-after-close.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "stream/qos_queue.hpp"

namespace sf::stream {
namespace {

// ---------------------------------------------------------------- //
//                    QoS policy and admission                       //
// ---------------------------------------------------------------- //

/** Minimal queue payload: QosQueue needs only .sessionId. */
struct Item
{
    std::uint32_t sessionId = 0;
    int value = 0;
};

TEST(QosQueueTest, StatDispatchesBeforeQueuedResearch)
{
    QosQueue<Item> queue(16, /*statBurst=*/4);
    const auto research = queue.registerSession(QosClass::Research);
    const auto stat = queue.registerSession(QosClass::Stat);

    // Research arrives first, Stat after — Stat still dispatches
    // first, and dispatches are class-pure.
    ASSERT_TRUE(queue.push(research, Item{research, 1}));
    ASSERT_TRUE(queue.push(research, Item{research, 2}));
    ASSERT_TRUE(queue.push(stat, Item{stat, 3}));

    std::vector<Item> batch;
    QosClass served = QosClass::Research;
    ASSERT_TRUE(queue.popBatch(batch, 8, &served));
    EXPECT_EQ(served, QosClass::Stat);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].value, 3);

    batch.clear();
    ASSERT_TRUE(queue.popBatch(batch, 8, &served));
    EXPECT_EQ(served, QosClass::Research);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].value, 1); // FIFO within the class
    EXPECT_EQ(batch[1].value, 2);
}

TEST(QosQueueTest, ResearchStarvationIsBoundedByStatBurst)
{
    constexpr std::size_t kBurst = 2;
    QosQueue<Item> queue(64, kBurst);
    const auto stat = queue.registerSession(QosClass::Stat);
    const auto research = queue.registerSession(QosClass::Research);

    // Both classes saturated: Research must be served at least every
    // kBurst+1 dispatches even though Stat never runs dry.
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(queue.push(stat, Item{stat, i}));
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, 100 + i}));

    std::vector<QosClass> order;
    std::vector<Item> batch;
    QosClass served = QosClass::Research;
    // Single-item dispatches expose the exact interleaving.
    while (queue.size() > 0) {
        batch.clear();
        ASSERT_TRUE(queue.popBatch(batch, 1, &served));
        order.push_back(served);
    }
    std::size_t stat_streak = 0;
    std::size_t research_seen = 0;
    for (QosClass cls : order) {
        if (cls == QosClass::Stat) {
            ++stat_streak;
            // The bound applies while Research work is waiting; once
            // the Research queue drains, Stat may streak freely.
            if (research_seen < 4) {
                EXPECT_LE(stat_streak, kBurst)
                    << "research starved past the statBurst bound";
            }
        } else {
            stat_streak = 0;
            ++research_seen;
        }
    }
    EXPECT_EQ(research_seen, 4u);
}

TEST(QosQueueTest, CloseWakesBlockedProducerAndDrainsConsumers)
{
    QosQueue<Item> queue(1, 4);
    const auto s = queue.registerSession(QosClass::Stat);
    ASSERT_TRUE(queue.push(s, Item{s, 1})); // at capacity

    std::atomic<bool> refused{false};
    std::thread pusher([&] {
        // Blocks on capacity; close() must wake it with false.
        refused.store(!queue.push(s, Item{s, 2}),
                      std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    queue.close();
    pusher.join();
    EXPECT_TRUE(refused.load(std::memory_order_acquire));

    // Consumers drain what was queued, then see false.
    std::vector<Item> batch;
    EXPECT_TRUE(queue.popBatch(batch, 8, nullptr));
    ASSERT_EQ(batch.size(), 1u);
    batch.clear();
    EXPECT_FALSE(queue.popBatch(batch, 8, nullptr));
}

TEST(QosQueueTest, LingerExpiryOnDrainedOpenQueueKeepsWorkerAlive)
{
    // Regression: a lingering worker whose deadline expires after a
    // concurrent worker drained the (still open) queue must go back
    // to waiting for work, not return false — a false return here
    // permanently retires the worker's dispatch loop and silently
    // degrades the pool.
    QosQueue<Item> queue(8, 4);
    const auto s = queue.registerSession(QosClass::Research);
    constexpr auto kLinger = std::chrono::milliseconds(100);

    std::vector<Item> dispatched;
    std::thread worker([&] {
        std::vector<Item> batch;
        while (queue.popBatch(batch, 4, nullptr, kLinger)) {
            dispatched.insert(dispatched.end(), batch.begin(),
                              batch.end());
            batch.clear();
        }
    });

    // Item 1 parks the worker in its linger (a batch of 4 cannot
    // fill), and an eager pop from this thread then drains the queue
    // out from under it.
    ASSERT_TRUE(queue.push(s, Item{s, 1}));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<Item> stolen;
    ASSERT_TRUE(queue.popBatch(stolen, 4, nullptr));
    ASSERT_EQ(stolen.size(), 1u);
    EXPECT_EQ(stolen[0].value, 1);

    // Let the worker's linger deadline expire on the now-empty, still
    // open queue, then offer new work: a worker that wrongly treated
    // the expiry as closed-and-drained leaves item 2 undelivered.
    std::this_thread::sleep_for(2 * kLinger);
    ASSERT_TRUE(queue.push(s, Item{s, 2}));
    queue.close(); // cuts any in-flight linger short, never past work
    worker.join();
    ASSERT_EQ(dispatched.size(), 1u)
        << "worker retired from an open queue after its linger "
           "expired empty";
    EXPECT_EQ(dispatched[0].value, 2);
}

TEST(QosQueueTest, LingerFillTargetIsTheServedClassNotTheTotal)
{
    // Dispatches are class-pure, so the linger's fill target must be
    // the depth of the class the dispatch will serve: four queued
    // Research items must not end a linger that is building a Stat
    // batch of one.
    QosQueue<Item> queue(16, /*statBurst=*/8);
    const auto stat = queue.registerSession(QosClass::Stat);
    const auto research = queue.registerSession(QosClass::Research);

    ASSERT_TRUE(queue.push(stat, Item{stat, 1}));
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, 100 + i}));

    // Stat is non-empty and the streak is fresh, so the dispatch
    // serves Stat; a total_-based fill predicate would see 5 >= 4 and
    // cut the linger with a 1/4-full Stat batch immediately, which is
    // exactly the shredding the linger exists to prevent.  With the
    // class-pure target the linger runs its course, and whatever Stat
    // work arrived meanwhile dispatches together.
    std::thread filler([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        for (int i = 2; i <= 4; ++i)
            ASSERT_TRUE(queue.push(stat, Item{stat, i}));
    });
    std::vector<Item> batch;
    QosClass served = QosClass::Research;
    ASSERT_TRUE(queue.popBatch(batch, 4, &served,
                               std::chrono::milliseconds(500)));
    filler.join();
    EXPECT_EQ(served, QosClass::Stat);
    EXPECT_EQ(batch.size(), 4u)
        << "linger ended on total depth instead of the served class";
}

// ---- capture storms against the shared queue --------------------- //

TEST(QosQueueTest, StormBurstOverCapacityBlocksAndNeverDrops)
{
    // A capture storm models many sessions bursting chunks far faster
    // than the pool drains them.  The admission contract is throttle,
    // never drop: with the burst an order of magnitude over capacity,
    // every item must still be delivered exactly once, and the stall
    // counters must show the backpressure that absorbed it.
    constexpr std::size_t kProducers = 3;
    constexpr int kPerProducer = 40;
    QosQueue<Item> queue(4, /*statBurst=*/4);
    std::vector<std::uint32_t> ids;
    for (std::size_t p = 0; p < kProducers; ++p)
        ids.push_back(queue.registerSession(QosClass::Research));

    std::mutex seen_mutex;
    std::multiset<int> seen;
    std::thread consumer([&] {
        // Let the burst slam into the full queue first.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        std::vector<Item> batch;
        while (queue.popBatch(batch, 8, nullptr)) {
            std::lock_guard lock(seen_mutex);
            for (const Item &item : batch)
                seen.insert(item.value);
            batch.clear();
        }
    });
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(queue.push(
                    ids[p], Item{ids[p], int(p) * 1000 + i}));
        });
    for (std::thread &t : producers)
        t.join();
    queue.close();
    consumer.join();

    ASSERT_EQ(seen.size(), kProducers * std::size_t(kPerProducer));
    for (std::size_t p = 0; p < kProducers; ++p)
        for (int i = 0; i < kPerProducer; ++i)
            EXPECT_EQ(seen.count(int(p) * 1000 + i), 1u)
                << "item dropped or duplicated under the storm";

    // 120 pushes through a 4-slot queue with a delayed consumer: the
    // burst must have blocked, and the per-session ledger must have
    // seen it, counting each push at most once.
    std::uint64_t stalls = 0;
    for (std::uint32_t id : ids) {
        EXPECT_LE(queue.stalls(id), std::uint64_t(kPerProducer));
        stalls += queue.stalls(id);
    }
    EXPECT_GT(stalls, 0u);
}

TEST(QosQueueTest, StatLatencyBoundHoldsMidStorm)
{
    // A Research storm has the queue saturated; a clinical Stat
    // request arriving mid-storm must still be served at the very
    // next dispatch — the storm may not add even one Research
    // dispatch to Stat's wait.
    QosQueue<Item> queue(64, /*statBurst=*/4);
    const auto research = queue.registerSession(QosClass::Research);
    const auto stat = queue.registerSession(QosClass::Stat);
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(queue.push(research, Item{research, i}));

    // Storm already raging when the Stat work arrives.
    std::vector<Item> batch;
    QosClass served = QosClass::Stat;
    ASSERT_TRUE(queue.popBatch(batch, 4, &served));
    EXPECT_EQ(served, QosClass::Research);

    ASSERT_TRUE(queue.push(stat, Item{stat, 999}));
    batch.clear();
    ASSERT_TRUE(queue.popBatch(batch, 4, &served));
    EXPECT_EQ(served, QosClass::Stat)
        << "a Research storm delayed a Stat dispatch";
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].value, 999);
}

TEST(QosQueueTest, CloseDuringStormWakesAllBlockedProducers)
{
    // Teardown mid-storm: every producer blocked on the saturated
    // queue must wake from close() and see false — none may hang
    // (that would deadlock fleet teardown) or spuriously succeed
    // after the close.
    constexpr std::size_t kBlocked = 6;
    QosQueue<Item> queue(2, 4);
    const auto s = queue.registerSession(QosClass::Research);
    ASSERT_TRUE(queue.push(s, Item{s, 0}));
    ASSERT_TRUE(queue.push(s, Item{s, 1})); // at capacity

    std::atomic<std::size_t> refused{0};
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < kBlocked; ++i)
        producers.emplace_back([&, i] {
            if (!queue.push(s, Item{s, int(100 + i)}))
                refused.fetch_add(1, std::memory_order_relaxed);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT(queue.stalls(s), 0u);
    queue.close();
    for (std::thread &t : producers)
        t.join(); // a missed wakeup hangs right here
    EXPECT_EQ(refused.load(std::memory_order_relaxed), kBlocked);

    // The two admitted items drain; then consumers see closed.
    std::vector<Item> batch;
    EXPECT_TRUE(queue.popBatch(batch, 8, nullptr));
    EXPECT_EQ(batch.size(), 2u);
    batch.clear();
    EXPECT_FALSE(queue.popBatch(batch, 8, nullptr));
}

TEST(QosQueueTest, InvalidParametersAreFatal)
{
    EXPECT_THROW(QosQueue<Item>(0, 4), FatalError);
    // statBurst = 0 would invert the priority (Research always
    // preferred), so it is rejected rather than silently honoured.
    EXPECT_THROW(QosQueue<Item>(16, 0), FatalError);
    QosQueue<Item> queue(4, 1);
    EXPECT_THROW(queue.push(7, Item{7, 0}), FatalError);
    const auto s = queue.registerSession(QosClass::Research);
    ASSERT_TRUE(queue.push(s, Item{s, 1}));
    std::vector<Item> batch;
    EXPECT_THROW(queue.popBatch(batch, 0), FatalError);
}

// ---------------------------------------------------------------- //
//            one session: the plain bounded FIFO contract           //
// ---------------------------------------------------------------- //

// With a single registered session QosQueue is a plain bounded MPMC
// FIFO — the shape ReadUntilSession::run() uses as a pool of one.
// The BoundedQueue cases pin that contract (order, batch limit, close
// waking producers and consumers, capacity backpressure, exactly-once
// delivery under contention) apart from the QoS policy above; the
// suite keeps the name of the single-session queue QosQueue replaced.

TEST(BoundedQueue, FifoSingleThread)
{
    QosQueue<Item> queue(8, 4);
    const auto s = queue.registerSession(QosClass::Research);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(queue.push(s, Item{s, i}));
    std::vector<Item> batch;
    for (int i = 0; i < 5; ++i) {
        batch.clear();
        ASSERT_TRUE(queue.popBatch(batch, 1));
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch[0].value, i);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, BatchPopRespectsLimitAndOrder)
{
    QosQueue<Item> queue(16, 4);
    const auto s = queue.registerSession(QosClass::Research);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(queue.push(s, Item{s, i}));
    std::vector<Item> batch;
    ASSERT_TRUE(queue.popBatch(batch, 4));
    ASSERT_EQ(batch.size(), 4u);
    ASSERT_TRUE(queue.popBatch(batch, 100));
    ASSERT_EQ(batch.size(), 10u); // appended the remaining six
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(batch[std::size_t(i)].value, i);
}

TEST(BoundedQueue, CloseDrainsThenRefuses)
{
    QosQueue<Item> queue(4, 4);
    const auto s = queue.registerSession(QosClass::Research);
    ASSERT_TRUE(queue.push(s, Item{s, 1}));
    ASSERT_TRUE(queue.push(s, Item{s, 2}));
    queue.close();
    EXPECT_FALSE(queue.push(s, Item{s, 3}));
    std::vector<Item> batch;
    ASSERT_TRUE(queue.popBatch(batch, 1));
    ASSERT_TRUE(queue.popBatch(batch, 1));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].value, 1);
    EXPECT_EQ(batch[1].value, 2);
    EXPECT_FALSE(queue.popBatch(batch, 1));
}

TEST(BoundedQueue, ZeroCapacityIsFatal)
{
    EXPECT_THROW(QosQueue<Item>(0, 4), FatalError);
}

TEST(BoundedQueue, ZeroBatchPopIsFatal)
{
    QosQueue<Item> queue(4, 4);
    const auto s = queue.registerSession(QosClass::Research);
    ASSERT_TRUE(queue.push(s, Item{s, 1}));
    std::vector<Item> batch;
    EXPECT_THROW(queue.popBatch(batch, 0), FatalError);
}

TEST(BoundedQueue, BackpressureBlocksProducerUntilConsumed)
{
    QosQueue<Item> queue(2, 4);
    const auto s = queue.registerSession(QosClass::Research);
    std::atomic<int> produced{0};
    std::thread producer([&] {
        for (int i = 0; i < 50; ++i) {
            EXPECT_TRUE(queue.push(s, Item{s, i}));
            produced.fetch_add(1);
        }
    });
    // The producer cannot run ahead of the capacity-2 buffer.
    std::vector<Item> seen;
    while (seen.size() < 50 && queue.popBatch(seen, 1))
        EXPECT_LE(produced.load(), int(seen.size()) + 2);
    producer.join();
    ASSERT_EQ(seen.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(seen[std::size_t(i)].value, i);
}

TEST(BoundedQueue, CloseWakesBlockedProducerWithoutEnqueuing)
{
    QosQueue<Item> queue(1, 4);
    const auto s = queue.registerSession(QosClass::Research);
    ASSERT_TRUE(queue.push(s, Item{s, 7})); // now full
    std::atomic<bool> push_returned{false};
    std::atomic<bool> push_result{true};
    std::thread producer([&] {
        // Blocks on the full queue until close() wakes it.
        push_result.store(queue.push(s, Item{s, 8}));
        push_returned.store(true);
    });
    // The sleep only makes the blocked interleaving overwhelmingly
    // likely; the test is correct without it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(push_returned.load());
    queue.close();
    producer.join();
    EXPECT_TRUE(push_returned.load());
    EXPECT_FALSE(push_result.load()); // refused, not enqueued
    // Only the pre-close item drains.
    std::vector<Item> batch;
    ASSERT_TRUE(queue.popBatch(batch, 4));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].value, 7);
    EXPECT_FALSE(queue.popBatch(batch, 4));
}

// ---------------------------------------------------------------- //
//                        contention stress                          //
// ---------------------------------------------------------------- //

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    QosQueue<Item> queue(4, 4);
    queue.registerSession(QosClass::Research);
    std::atomic<bool> pop_returned{false};
    std::atomic<bool> pop_result{true};
    std::thread consumer([&] {
        std::vector<Item> batch;
        // Blocks: the queue is empty and open.
        pop_result.store(queue.popBatch(batch, 4));
        pop_returned.store(true);
    });
    // The sleep only makes the blocked interleaving overwhelmingly
    // likely; the test is correct without it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(pop_returned.load());
    queue.close();
    consumer.join();
    EXPECT_TRUE(pop_returned.load());
    EXPECT_FALSE(pop_result.load()); // closed and drained
}

TEST(BoundedQueue, FifoOrderPreservedPerProducerUnderSingleConsumer)
{
    // Producer threads share the one session; item values encode
    // (producer, sequence).  With one consumer, each producer's items
    // must arrive in its own push order even while producers
    // interleave through a tiny buffer.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 200;
    QosQueue<Item> queue(3, 4);
    const auto s = queue.registerSession(QosClass::Research);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(queue.push(s, Item{s, p * kPerProducer + i}));
        });
    std::vector<int> next_expected(kProducers, 0);
    std::vector<Item> batch;
    for (int n = 0; n < kProducers * kPerProducer; ++n) {
        batch.clear();
        ASSERT_TRUE(queue.popBatch(batch, 1));
        const int p = batch[0].value / kPerProducer;
        EXPECT_EQ(batch[0].value % kPerProducer,
                  next_expected[std::size_t(p)])
            << "producer " << p << " reordered";
        ++next_expected[std::size_t(p)];
    }
    for (auto &producer : producers)
        producer.join();
    EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, ManyProducersManyConsumersDeliverEachItemOnce)
{
    // The TSan centrepiece: heavy two-sided contention on a queue
    // much smaller than the in-flight item count, batched pops (with
    // a linger on half the consumers, as the pool's workers use), and
    // a close() while consumers are still draining.  Every item must
    // come out exactly once, in dispatches of at most the batch size.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 250;
    constexpr int kTotal = kProducers * kPerProducer;
    constexpr std::size_t kBatch = 7;
    QosQueue<Item> queue(5, 4);
    const auto s = queue.registerSession(QosClass::Research);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(queue.push(s, Item{s, p * kPerProducer + i}));
        });
    std::vector<std::atomic<int>> delivered(kTotal);
    std::atomic<bool> oversized{false};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&, c] {
            const auto linger = c % 2 == 0
                                    ? std::chrono::microseconds(50)
                                    : std::chrono::microseconds(0);
            std::vector<Item> batch;
            while (queue.popBatch(batch, kBatch, nullptr, linger)) {
                if (batch.size() > kBatch)
                    oversized.store(true);
                for (const Item &item : batch)
                    delivered[std::size_t(item.value)].fetch_add(1);
                batch.clear();
            }
        });
    for (auto &producer : producers)
        producer.join();
    queue.close(); // consumers drain the tail, then exit
    for (auto &consumer : consumers)
        consumer.join();
    EXPECT_FALSE(oversized.load()) << "a dispatch exceeded the batch size";
    for (int i = 0; i < kTotal; ++i)
        ASSERT_EQ(delivered[std::size_t(i)].load(), 1)
            << "item " << i << " delivered wrong number of times";
}

} // namespace
} // namespace sf::stream
