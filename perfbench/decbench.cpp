/**
 * @file
 * Decision-path benchmark program (sdtw -> stream -> fleet).
 *
 * Two modes, both driven by perfbench/run.py:
 *
 *   decbench setup --workload W --seed S
 *       Cold set-up only (reference squiggle, dataset synthesis,
 *       calibration, classifier construction) in this fresh process;
 *       prints one JSON line with the phase times.
 *
 *   decbench run --workload W --seed S --seconds T --trace 0|1
 *                [--trace-out FILE]
 *       Set-up, then the oracle pass (every read through the public
 *       processBatch(), outside the timed window), then workload
 *       rounds until T seconds of rounds have run.  Every round's
 *       decision logs are checked against the oracle and against the
 *       first round.  --trace 1 splits T: untraced rounds for T/2, then
 *       traced rounds for T/2 (spans around the calls into pipeline,
 *       fleet, stream and sdtw, plus a polled
 *       FleetOrchestrator::snapshot()) and, on fleet workloads,
 *       1-worker rounds for T/4; the spans are written to --trace-out
 *       when the run ends.  Prints one JSON line of raw figures; run.py
 *       turns it into the benchmark's metrics.
 *
 * All sizes are explicit (SF_SCALE is never consulted) and every
 * dataset and session seed derives from the one --seed argument.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/topology.hpp"
#include "fleet/orchestrator.hpp"
#include "pipeline/experiments.hpp"
#include "sdtw/batch.hpp"
#include "sdtw/filter.hpp"
#include "sdtw/threshold.hpp"
#include "stream/session.hpp"

using namespace sf;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kChunkSamples = 1600; // 0.4 s at 4 kHz
/** Fleet decision workers: still a shared pool, while a 4-cpu host
    keeps cpus free for the sessions' event-loop threads. */
constexpr unsigned kFleetWorkers = 2;
/**
 * flowcell-lambda's private pool.  On a shared 4-cpu host its chunks/s
 * moved about 10% between rounds of one run and up to 20% between runs
 * of one seed at 2 workers; at 1 worker, which every request keeps
 * busy, about 5% and 10%.
 */
constexpr unsigned kLambdaWorkers = 1;

// ---- workloads --------------------------------------------------------

/** fleet-overlap / fleet-handoff: 8 flowcells x 8 channels. */
constexpr std::size_t kFleetSessions = 8;
constexpr int kFleetChannels = 8;
constexpr std::size_t kFleetReadsPerSession = 64;
constexpr std::size_t kFleetStages = 9;
constexpr std::size_t kFleetCalibrationReads = 40;

/**
 * flowcell-lambda: one 32-channel flowcell on the lambda genome, 80
 * target and 80 background reads, so each channel sequences five reads
 * and the flowcell spends most of a round in a steady state with at
 * most two 16-request dispatches queued.  With one read per channel
 * (128 channels) a round is a single burst shaped by each seed's
 * capture schedule: at 1 worker p50 differed by up to 40% between
 * seeds and chunks/s by 25%; at 32 channels (96 + 96 reads) five seeds
 * agreed within about 5% in chunks/s and CPU time per chunk.  Four
 * decision stages (at most 6,400 samples per read) keep a round near
 * 30 s on the 1-worker pool.
 */
constexpr int kLambdaChannels = 32;
constexpr std::size_t kLambdaReadsPerClass = 80;
constexpr std::size_t kLambdaStages = 4;

enum class Shape { FleetOverlap, FleetHandoff, FlowcellLambda };

std::optional<Shape>
parseShape(const std::string &name)
{
    if (name == "fleet-overlap")
        return Shape::FleetOverlap;
    if (name == "fleet-handoff")
        return Shape::FleetHandoff;
    if (name == "flowcell-lambda")
        return Shape::FlowcellLambda;
    return std::nullopt;
}

bool
isFleet(Shape shape)
{
    return shape != Shape::FlowcellLambda;
}

unsigned
poolWorkers(Shape shape)
{
    return isFleet(shape) ? kFleetWorkers : kLambdaWorkers;
}

/** The index-th seed derived from the workload seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    return Rng::derive(seed, index)();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- tracing ----------------------------------------------------------

/**
 * Spans recorded by the benchmark around its own calls into each
 * layer.  `group` is the request identifier: the round a span belongs
 * to (-1 for set-up and the oracle pass).  Spans stay in memory and
 * are written out once, when the run ends.
 */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    long group = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    unsigned thread = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when tracing is off). */
    std::uint64_t
    begin(const char *name, std::uint64_t parent, long group,
          unsigned thread = 0)
    {
        if (!enabled_)
            return 0;
        Span span;
        span.name = name;
        span.parent = parent;
        span.group = group;
        span.thread = thread;
        span.startNs = nowNs();
        std::lock_guard lock(mutex_);
        span.id = spans_.size() + 1;
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    void
    end(std::uint64_t id)
    {
        if (!enabled_ || id == 0)
            return;
        const std::int64_t t = nowNs();
        std::lock_guard lock(mutex_);
        spans_[id - 1].endNs = t;
    }

    /**
     * Write the spans as Chrome trace events (load in chrome://tracing
     * or Perfetto) plus a per-name summary of count, total and self
     * time, where self time is a span's duration minus the part of it
     * its child spans cover.
     */
    bool
    write(const std::string &path) const
    {
        std::lock_guard lock(mutex_);
        std::vector<std::vector<std::size_t>> children(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent != 0)
                children[spans_[i].parent - 1].push_back(i);

        struct Total
        {
            std::uint64_t count = 0;
            double totalMs = 0.0;
            double selfMs = 0.0;
        };
        std::map<std::string, Total> totals;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::vector<std::pair<std::int64_t, std::int64_t>> cover;
            for (std::size_t c : children[i])
                cover.emplace_back(std::max(spans_[c].startNs, s.startNs),
                                   std::min(spans_[c].endNs, s.endNs));
            std::sort(cover.begin(), cover.end());
            std::int64_t covered = 0;
            std::int64_t reach = s.startNs;
            for (const auto &[a, b] : cover) {
                const std::int64_t lo = std::max(a, reach);
                if (b > lo) {
                    covered += b - lo;
                    reach = b;
                }
            }
            Total &t = totals[s.name];
            ++t.count;
            t.totalMs += double(s.endNs - s.startNs) / 1e6;
            t.selfMs += double(s.endNs - s.startNs - covered) / 1e6;
        }

        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char line[512];
            std::snprintf(
                line, sizeof line,
                "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                ", \"round\": %ld}}%s\n",
                s.name.c_str(), s.thread, double(s.startNs) / 1e3,
                double(s.endNs - s.startNs) / 1e3, s.id, s.parent,
                s.group, i + 1 < spans_.size() ? "," : "");
            out << line;
        }
        out << "], \"summary\": {";
        bool first = true;
        for (const auto &[name, t] : totals) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "%s\n\"%s\": {\"count\": %" PRIu64
                          ", \"total_ms\": %.3f, \"self_ms\": %.3f}",
                          first ? "" : ",", name.c_str(), t.count,
                          t.totalMs, t.selfMs);
            out << line;
            first = false;
        }
        out << "}}\n";
        return bool(out);
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    const bool enabled_;
    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when the tracer is off. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t parent,
               long group, unsigned thread = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, group, thread))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

// ---- set-up -----------------------------------------------------------

struct SetupTimes
{
    double referenceS = 0.0;
    double datasetS = 0.0;
    double calibrateS = 0.0;

    double total() const { return referenceS + datasetS + calibrateS; }
};

/** Everything a workload needs, built once per process. */
struct Fixture
{
    Shape shape = Shape::FleetOverlap;
    std::uint64_t seed = 0;
    const pore::ReferenceSquiggle *reference = nullptr;
    /** One read set per session (one for the standalone flowcell). */
    std::vector<const signal::Dataset *> datasets;
    std::unique_ptr<sdtw::SquiggleFilterClassifier> classifier;
    SetupTimes times;
};

Fixture
buildFixture(Shape shape, std::uint64_t seed, Tracer &tracer)
{
    Fixture fx;
    fx.shape = shape;
    fx.seed = seed;
    const ScopedSpan root(tracer, "setup", 0, -1);

    auto t0 = Clock::now();
    {
        const ScopedSpan span(tracer, "pipeline.reference", root.id(), -1);
        fx.reference = isFleet(shape) ? &pipeline::streamVirusSquiggle()
                                      : &pipeline::lambdaSquiggle();
    }
    fx.times.referenceS = secondsSince(t0);

    t0 = Clock::now();
    {
        const ScopedSpan span(tracer, "pipeline.dataset", root.id(), -1);
        if (isFleet(shape)) {
            for (std::size_t i = 0; i < kFleetSessions; ++i)
                fx.datasets.push_back(&pipeline::makeStreamDataset(
                    kFleetReadsPerSession, 0.5, deriveSeed(seed, 100 + i)));
        } else {
            fx.datasets.push_back(&pipeline::makeLambdaDataset(
                kLambdaReadsPerClass, deriveSeed(seed, 100)));
        }
    }
    fx.times.datasetS = secondsSince(t0);

    t0 = Clock::now();
    {
        const ScopedSpan span(tracer, "pipeline.calibrate", root.id(), -1);
        fx.classifier = std::make_unique<sdtw::SquiggleFilterClassifier>(
            *fx.reference);
        if (isFleet(shape)) {
            fx.classifier->setStages(sdtw::uniformStageSchedule(
                kChunkSamples, kFleetStages,
                pipeline::calibratedStreamThreshold(
                    kFleetCalibrationReads, 0.5, deriveSeed(seed, 1))));
        } else {
            // The best-F1 point of the flowcell's own reads (as in
            // Figure 17d): a separate small calibration set moves the
            // threshold, and with it enrichment, too much from seed to
            // seed.
            const auto costs = sdtw::collectCosts(
                *fx.reference, fx.datasets.front()->reads, 2000,
                sdtw::hardwareConfig());
            fx.classifier->setStages(sdtw::uniformStageSchedule(
                kChunkSamples, kLambdaStages,
                Cost(sdtw::bestF1Threshold(costs))));
        }
    }
    fx.times.calibrateS = secondsSince(t0);
    return fx;
}

// ---- one workload round -----------------------------------------------

stream::SessionConfig
fleetSessionConfig(Shape shape, std::uint64_t seed, std::size_t i)
{
    stream::SessionConfig cfg;
    cfg.channels = kFleetChannels;
    cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
    // fleet-overlap: a software-class budget of one chunk period keeps
    // every channel's request in flight when its next chunk surfaces;
    // fleet-handoff keeps the hardware-class 43 us default.
    if (shape == Shape::FleetOverlap)
        cfg.decisionLatencySec = cfg.chunkSeconds;
    cfg.captureDelayMeanSec = 0.25;
    cfg.ejectLatencySec = 0.2;
    cfg.poreRecoverySec = 0.2;
    cfg.seed = deriveSeed(seed, 200 + i);
    return cfg;
}

stream::SessionConfig
lambdaSessionConfig(std::uint64_t seed, unsigned workers)
{
    stream::SessionConfig cfg;
    cfg.channels = kLambdaChannels;
    cfg.chunkSeconds = double(kChunkSamples) / cfg.sampleRateHz;
    cfg.decisionLatencySec = 0.4;
    cfg.workers = workers;
    cfg.seed = deriveSeed(seed, 200);
    return cfg;
}

/** Figures of one round (one fleet run or one session run). */
struct Round
{
    double wallS = 0.0;
    double cpuS = 0.0; //!< process CPU time over the round
    double chunksPerS = 0.0;
    double p50Us = 0.0; //!< median over sessions of session p50
    double p90Us = 0.0; //!< median over sessions of session p90
    std::uint64_t minSamples = 0; //!< fewest latency samples of a session

    // exact counts (virtual-time outcomes)
    std::uint64_t decisions = 0;
    std::uint64_t chunks = 0;
    std::uint64_t dpRowsFolded = 0;
    std::uint64_t dpRowsNaive = 0;
    std::uint64_t cells = 0;
    double virtualS = 0.0;
    double enrichment = 0.0; //!< mean over sessions

    // layer figures
    double sessionWallSkew = 1.0;
    std::uint64_t streamDispatches = 0;
    double streamMeanBatch = 0.0;
    std::uint64_t fleetDispatches = 0;
    double fleetMeanBatch = 0.0;
    double laneOccupancy = 0.0;
    double statShare = 0.0;
    std::uint64_t backpressureStalls = 0;
    double queueDepthMean = 0.0;
    std::uint64_t queueDepthMax = 0;
    std::uint64_t polls = 0;

    std::vector<stream::SessionResult> results;
};

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void
summariseSessions(const Fixture &fx, Round &r)
{
    std::vector<double> p50, p90, walls;
    double enrichment = 0.0;
    r.minSamples = UINT64_MAX;
    for (const stream::SessionResult &res : r.results) {
        const stream::SessionStats &s = res.stats;
        p50.push_back(s.latency.p50us);
        p90.push_back(s.latency.p90us);
        walls.push_back(s.wallSeconds);
        r.minSamples = std::min<std::uint64_t>(r.minSamples, s.decisions);
        r.decisions += s.decisions;
        r.chunks += s.chunksEmitted;
        r.dpRowsFolded += s.dpRowsFolded;
        r.dpRowsNaive += s.dpRowsNaive;
        r.virtualS += s.virtualSeconds;
        enrichment += s.enrichmentFactor;
    }
    r.p50Us = median(p50);
    r.p90Us = median(p90);
    r.enrichment = enrichment / double(r.results.size());
    r.cells = r.dpRowsFolded * fx.reference->size();
    const auto [lo, hi] = std::minmax_element(walls.begin(), walls.end());
    r.sessionWallSkew = *lo > 0.0 ? *hi / *lo : 0.0;
}

Round
runFleetRound(const Fixture &fx, unsigned workers, Tracer &tracer,
              long group, bool poll)
{
    fleet::FleetConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 256;
    cfg.dispatchBatch = 16;
    cfg.statBurst = 4;
    cfg.laneBatching = true;
    fleet::FleetOrchestrator orchestrator(cfg);
    for (std::size_t i = 0; i < kFleetSessions; ++i) {
        fleet::SessionSpec spec;
        spec.name = "cell-" + std::to_string(i);
        spec.classifier = fx.classifier.get();
        spec.config = fleetSessionConfig(fx.shape, fx.seed, i);
        spec.qos = i % 2 == 0 ? fleet::QosClass::Stat
                              : fleet::QosClass::Research;
        spec.reads = fx.datasets[i]->reads;
        orchestrator.addSession(spec);
    }

    Round r;
    const ScopedSpan round(tracer, "round", 0, group);
    const ScopedSpan run_span(tracer, "fleet.run", round.id(), group);

    // Queue-depth poller: snapshot() every millisecond while run() is
    // in flight (traced rounds only).  The jthread stops and joins on
    // every exit path, before the state it reads goes away.
    double depth_sum = 0.0;
    std::jthread poller;
    if (poll) {
        poller = std::jthread([&](std::stop_token stop) {
            while (!stop.stop_requested()) {
                fleet::FleetSnapshot snap;
                {
                    const ScopedSpan span(tracer, "fleet.snapshot",
                                          run_span.id(), group, 1);
                    snap = orchestrator.snapshot();
                }
                if (!snap.sessions.empty()) {
                    std::uint64_t depth = 0;
                    for (const auto &s : snap.sessions)
                        depth += s.queueDepth;
                    depth_sum += double(depth);
                    r.queueDepthMax = std::max(r.queueDepthMax, depth);
                    ++r.polls;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }
    fleet::FleetResult result = orchestrator.run();
    if (poller.joinable()) {
        poller.request_stop();
        poller.join();
    }
    r.queueDepthMean = r.polls > 0 ? depth_sum / double(r.polls) : 0.0;

    const fleet::FleetSnapshot &snap = result.snapshot;
    r.wallS = snap.wallSeconds;
    r.chunksPerS = snap.chunksPerSec;
    r.fleetDispatches = snap.dispatches;
    r.fleetMeanBatch = snap.meanBatchSize;
    r.laneOccupancy = snap.laneOccupancy;
    r.statShare =
        snap.dispatches > 0
            ? double(snap.dispatchesByClass[std::size_t(
                  fleet::QosClass::Stat)]) /
                  double(snap.dispatches)
            : 0.0;
    r.backpressureStalls = snap.faults.backpressureStalls;
    for (fleet::SessionOutcome &o : result.sessions)
        r.results.push_back(std::move(o.result));
    summariseSessions(fx, r);
    return r;
}

Round
runLambdaRound(const Fixture &fx, unsigned workers, Tracer &tracer,
               long group)
{
    const stream::ReadUntilSession session(
        *fx.classifier, lambdaSessionConfig(fx.seed, workers));
    Round r;
    {
        const ScopedSpan round(tracer, "round", 0, group);
        const ScopedSpan run_span(tracer, "session.run", round.id(), group);
        r.results.push_back(session.run(fx.datasets.front()->reads));
    }
    const stream::SessionStats &s = r.results.front().stats;
    r.wallS = s.wallSeconds;
    r.chunksPerS = s.chunksPerSec;
    r.streamDispatches = s.dispatches;
    r.streamMeanBatch = s.meanBatchSize;
    summariseSessions(fx, r);
    return r;
}

Round
runRound(const Fixture &fx, unsigned workers, Tracer &tracer, long group)
{
    return isFleet(fx.shape)
               ? runFleetRound(fx, workers, tracer, group, tracer.enabled())
               : runLambdaRound(fx, workers, tracer, group);
}

// ---- correctness ------------------------------------------------------

/** Offline decisions by read id, one map per session. */
using Oracle = std::vector<std::map<std::uint64_t, sdtw::Classification>>;

/**
 * Every read of every session through the public processBatch() at
 * @p threads threads; returns the oracle and the wall time it took.
 */
Oracle
runOracle(const Fixture &fx, unsigned threads, Tracer &tracer,
          double &wall_s)
{
    Oracle oracle;
    const ScopedSpan root(tracer, "oracle", 0, -1);
    wall_s = 0.0;
    for (const signal::Dataset *data : fx.datasets) {
        const auto t0 = Clock::now();
        std::vector<sdtw::Classification> out;
        {
            const ScopedSpan span(tracer, "sdtw.processBatch", root.id(),
                                  -1);
            out = fx.classifier->processBatch(data->reads, threads);
        }
        wall_s += secondsSince(t0);
        auto &by_id = oracle.emplace_back();
        for (std::size_t i = 0; i < out.size(); ++i)
            by_id.emplace(data->reads[i].id, out[i]);
    }
    return oracle;
}

/** Reads offered, and decisions missing or differing from the oracle. */
struct Check
{
    std::uint64_t offered = 0;
    std::uint64_t wrong = 0;
    std::uint64_t drift = 0; //!< log entries unlike the first round's
};

void
checkRound(const Fixture &fx, const Oracle &oracle, const Round &r,
           const Round *first, Check &check)
{
    for (std::size_t s = 0; s < r.results.size(); ++s) {
        const auto &log = r.results[s].log;
        const auto &expect = oracle[s];
        check.offered += fx.datasets[s]->reads.size();
        std::map<std::uint64_t, bool> seen;
        for (const stream::DecisionRecord &d : log) {
            const auto it = expect.find(d.readId);
            if (it == expect.end() || seen.count(d.readId) != 0) {
                ++check.wrong;
                continue;
            }
            seen[d.readId] = true;
            const sdtw::Classification &c = it->second;
            if (c.keep != d.keep || c.cost != d.cost ||
                c.samplesUsed != d.samplesUsed ||
                c.stagesRun != d.stagesRun)
                ++check.wrong;
        }
        check.wrong += fx.datasets[s]->reads.size() - seen.size();

        if (first == nullptr)
            continue;
        const auto &ref = first->results[s].log;
        if (ref.size() != log.size()) {
            ++check.drift;
            continue;
        }
        for (std::size_t i = 0; i < log.size(); ++i) {
            const auto &a = log[i];
            const auto &b = ref[i];
            if (a.channel != b.channel || a.readId != b.readId ||
                a.keep != b.keep || a.cost != b.cost ||
                a.samplesUsed != b.samplesUsed ||
                a.stagesRun != b.stagesRun ||
                a.virtualSec != b.virtualSec)
                ++check.drift;
        }
    }
    if (first != nullptr &&
        (r.decisions != first->decisions || r.chunks != first->chunks ||
         r.dpRowsFolded != first->dpRowsFolded || r.cells != first->cells ||
         r.virtualS != first->virtualS ||
         r.enrichment != first->enrichment))
        ++check.drift;
}

// ---- reporting --------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + double(ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/**
 * Rounds run back to back for about @p seconds: another round starts
 * while less than half a mean round would be left over.
 */
std::vector<Round>
runRounds(const Fixture &fx, unsigned workers, double seconds,
          Tracer &tracer, long first_group)
{
    std::vector<Round> rounds;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
        const double cpu0 = cpuSeconds();
        rounds.push_back(
            runRound(fx, workers, tracer, first_group + long(rounds.size())));
        rounds.back().cpuS = cpuSeconds() - cpu0;
        elapsed = secondsSince(t0);
    } while (elapsed + 0.5 * elapsed / double(rounds.size()) < seconds);
    return rounds;
}

template <typename F>
double
medianOf(const std::vector<Round> &rounds, F field)
{
    std::vector<double> xs;
    for (const Round &r : rounds)
        xs.push_back(double(field(r)));
    return median(xs);
}

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "decbench: %s\nusage: decbench setup|run --workload "
                 "fleet-overlap|fleet-handoff|flowcell-lambda --seed N "
                 "[--seconds T] [--trace 0|1] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value, &end);
        } else if (key == "--trace") {
            a.trace = std::strcmp(value, "1") == 0;
        } else if (key == "--trace-out") {
            a.traceOut = value;
        } else {
            usage("unknown option");
        }
        if (end != nullptr && *end != '\0')
            usage("malformed number");
    }
    if ((argc - 2) % 2 != 0)
        usage("option without a value");
    if (a.mode != "setup" && a.mode != "run")
        usage("mode must be setup or run");
    if (a.seconds <= 0.0)
        usage("seconds must be positive");
    return a;
}

void
printSetup(const SetupTimes &t)
{
    std::printf("{\"reference_s\": %.6f, \"dataset_s\": %.6f, "
                "\"calibrate_s\": %.6f, \"setup_s\": %.6f}\n",
                t.referenceS, t.datasetS, t.calibrateS, t.total());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::optional<Shape> shape = parseShape(args.workload);
    if (!shape)
        usage("unknown workload");

    Tracer tracer(args.trace);
    Fixture fx = buildFixture(*shape, args.seed, tracer);
    if (args.mode == "setup") {
        printSetup(fx.times);
        return 0;
    }

    // Oracle pass: outside the timed window; it also warms the
    // reference, the allocator and the page cache before round 1.  A
    // traced run times it at the pool's thread count (the offline
    // kernel figure); otherwise it may use every cpu.
    Tracer off(false);
    const unsigned workers = poolWorkers(*shape);
    const unsigned oracle_threads =
        args.trace ? workers
                   : std::max(workers, std::thread::hardware_concurrency());
    double offline_s = 0.0;
    const Oracle oracle =
        runOracle(fx, oracle_threads, tracer, offline_s);

    // A traced run gives half its time to the untraced base rounds, so
    // it measures about as long as an untraced one.
    const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
    Check check;
    std::vector<Round> rounds = runRounds(fx, workers, phase_s, off, 0);
    for (const Round &r : rounds)
        checkRound(fx, oracle, r, &rounds.front(), check);

    std::vector<Round> traced;
    std::vector<Round> solo;
    if (args.trace) {
        traced = runRounds(fx, workers, phase_s, tracer,
                           long(rounds.size()));
        for (const Round &r : traced)
            checkRound(fx, oracle, r, &rounds.front(), check);
        if (isFleet(*shape)) {
            solo = runRounds(fx, 1, phase_s / 2, off, 0);
            for (const Round &r : solo)
                checkRound(fx, oracle, r, &rounds.front(), check);
        }
        if (!args.traceOut.empty() && !tracer.write(args.traceOut)) {
            std::fprintf(stderr, "decbench: cannot write %s\n",
                         args.traceOut.c_str());
            return 1;
        }
    }

    const Round &first = rounds.front();
    const double cps = medianOf(rounds, [](const Round &r) {
        return r.chunksPerS;
    });
    const double wall = medianOf(rounds, [](const Round &r) {
        return r.wallS;
    });

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"workers\": %u, \"rounds\": %zu, "
                "\"simd\": \"%s\", \"l2_bytes\": %zu, "
                "\"reference_samples\": %zu, ",
                args.workload.c_str(), args.seed, workers,
                rounds.size(),
                sdtw::simdBackendName(sdtw::detectSimdBackend()),
                topo::level2CacheBytes(), fx.reference->size());
    std::printf("\"reference_s\": %.6f, \"dataset_s\": %.6f, "
                "\"calibrate_s\": %.6f, \"setup_s\": %.6f, ",
                fx.times.referenceS, fx.times.datasetS,
                fx.times.calibrateS, fx.times.total());
    std::printf("\"chunks_per_s\": %.6f, \"wall_s\": %.6f, "
                "\"p50_us\": %.3f, \"p90_us\": %.3f, "
                "\"latency_samples_min\": %" PRIu64 ", "
                "\"cpu_ms_per_chunk\": %.6f, \"peak_rss_mb\": %.3f, ",
                cps, wall, medianOf(rounds, [](const Round &r) {
                    return r.p50Us;
                }),
                medianOf(rounds, [](const Round &r) { return r.p90Us; }),
                first.minSamples,
                medianOf(rounds,
                         [](const Round &r) {
                             return 1e3 * r.cpuS / double(r.chunks);
                         }),
                peakRssMb());
    std::printf("\"offered\": %" PRIu64 ", \"wrong\": %" PRIu64
                ", \"drift\": %" PRIu64 ", ",
                check.offered, check.wrong, check.drift);
    std::printf("\"decisions\": %" PRIu64 ", \"chunks\": %" PRIu64
                ", \"dp_rows_folded\": %" PRIu64
                ", \"dp_rows_naive\": %" PRIu64 ", \"cells\": %" PRIu64
                ", \"virtual_s\": %.17g, \"enrichment\": %.17g, "
                "\"offline_s\": %.6f, \"oracle_threads\": %u",
                first.decisions, first.chunks, first.dpRowsFolded,
                first.dpRowsNaive, first.cells, first.virtualS,
                first.enrichment, offline_s, oracle_threads);
    if (args.trace) {
        const auto m = [&](auto field) { return medianOf(traced, field); };
        std::printf(
            ", \"traced_chunks_per_s\": %.6f, \"traced_rounds\": %zu, "
            "\"fleet_mean_batch\": %.6f, \"fleet_lane_occupancy\": %.6f, "
            "\"fleet_dispatches\": %.1f, \"fleet_stat_share\": %.6f, "
            "\"fleet_queue_depth_mean\": %.6f, "
            "\"fleet_queue_depth_max\": %.1f, "
            "\"fleet_backpressure_stalls\": %.1f, "
            "\"traced_decisions_per_s\": %.6f, "
            "\"session_wall_skew\": %.6f, \"stream_dispatches\": %.1f, "
            "\"stream_mean_batch\": %.6f, \"polls\": %.1f",
            m([](const Round &r) { return r.chunksPerS; }), traced.size(),
            m([](const Round &r) { return r.fleetMeanBatch; }),
            m([](const Round &r) { return r.laneOccupancy; }),
            m([](const Round &r) { return r.fleetDispatches; }),
            m([](const Round &r) { return r.statShare; }),
            m([](const Round &r) { return r.queueDepthMean; }),
            m([](const Round &r) { return r.queueDepthMax; }),
            m([](const Round &r) { return r.backpressureStalls; }),
            m([](const Round &r) { return double(r.decisions) / r.wallS; }),
            m([](const Round &r) { return r.sessionWallSkew; }),
            m([](const Round &r) { return r.streamDispatches; }),
            m([](const Round &r) { return r.streamMeanBatch; }),
            m([](const Round &r) { return r.polls; }));
        std::printf(", \"solo_chunks_per_s\": %.6f, \"solo_rounds\": %zu",
                    solo.empty() ? 0.0
                                 : medianOf(solo, [](const Round &r) {
                                       return r.chunksPerS;
                                   }),
                    solo.size());
    }
    std::printf(", \"round_chunks_per_s\": [");
    for (std::size_t i = 0; i < rounds.size(); ++i)
        std::printf("%s%.3f", i > 0 ? ", " : "", rounds[i].chunksPerS);
    std::printf("]}\n");
    return 0;
}
