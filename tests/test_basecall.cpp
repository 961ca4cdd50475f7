/**
 * @file
 * Tests for the basecalling substrates: identity metric, oracle error
 * injection, and the Guppy performance model's calibration against
 * the paper's published numbers.
 */

#include <gtest/gtest.h>

#include "basecall/basecaller.hpp"
#include "basecall/oracle.hpp"
#include "basecall/perf_model.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "genome/synthetic.hpp"
#include "pipeline/experiments.hpp"
#include "signal/simulator.hpp"

namespace sf::basecall {
namespace {

signal::ReadRecord
makeRead(std::size_t bases, std::uint64_t seed)
{
    const genome::Genome g = genome::makeSynthetic(
        "read-src", {.length = bases, .seed = seed});
    signal::ReadRecord read;
    read.id = seed;
    read.bases = g.bases();
    Rng rng(seed * 17 + 3);
    const signal::SignalSimulator sim(pipeline::defaultKmerModel());
    sim.simulate(read, rng);
    return read;
}

TEST(Identity, ExactMatchIsOne)
{
    const auto read = makeRead(200, 1);
    EXPECT_DOUBLE_EQ(basecallIdentity(read.bases, read.bases), 1.0);
}

TEST(Identity, EmptyCases)
{
    EXPECT_DOUBLE_EQ(basecallIdentity({}, {}), 1.0);
    EXPECT_DOUBLE_EQ(basecallIdentity({}, {genome::Base::A}), 0.0);
    EXPECT_DOUBLE_EQ(basecallIdentity({genome::Base::A}, {}), 0.0);
}

TEST(Identity, SingleSubstitutionCountsOnce)
{
    auto a = makeRead(100, 2).bases;
    auto b = a;
    b[50] = genome::complement(b[50]);
    EXPECT_NEAR(basecallIdentity(a, b), 0.99, 1e-9);
}

TEST(Identity, DetectsShiftedSequences)
{
    const auto read = makeRead(300, 3).bases;
    std::vector<genome::Base> shifted(read.begin() + 3, read.end());
    EXPECT_GT(basecallIdentity(shifted, read), 0.98);
}

TEST(Oracle, ZeroErrorRateReproducesTruth)
{
    const auto read = makeRead(400, 4);
    OracleBasecaller oracle({0.0, 0.0, 0.0, 7});
    EXPECT_EQ(oracle.callAll(read), read.bases);
}

TEST(Oracle, ErrorRateMatchesProfile)
{
    const auto read = makeRead(4000, 5);
    const ErrorProfile profile = guppyFastProfile();
    OracleBasecaller oracle(profile);
    const auto called = oracle.callAll(read);
    const double identity = basecallIdentity(called, read.bases);
    EXPECT_NEAR(1.0 - identity, profile.totalRate(), 0.03);
}

TEST(Oracle, HacMoreAccurateThanFast)
{
    const auto read = makeRead(4000, 6);
    const auto hac =
        OracleBasecaller(guppyHacProfile()).callAll(read);
    const auto fast =
        OracleBasecaller(guppyFastProfile()).callAll(read);
    EXPECT_GT(basecallIdentity(hac, read.bases),
              basecallIdentity(fast, read.bases));
}

TEST(Oracle, PrefixCoversOnlySequencedBases)
{
    const auto read = makeRead(600, 7);
    OracleBasecaller oracle({0.0, 0.0, 0.0, 7});
    const auto prefix = oracle.call(read, 900); // ~100 bases worth
    EXPECT_LT(prefix.size(), 200u);
    EXPECT_GT(prefix.size(), 50u);
    // Called prefix must equal the true prefix.
    for (std::size_t i = 0; i < prefix.size(); ++i)
        EXPECT_EQ(prefix[i], read.bases[i]);
}

TEST(Oracle, DeterministicPerRead)
{
    const auto read = makeRead(500, 8);
    OracleBasecaller oracle(guppyHacProfile());
    EXPECT_EQ(oracle.callAll(read), oracle.callAll(read));
}

TEST(Oracle, InvalidProfileIsFatal)
{
    EXPECT_THROW(OracleBasecaller({0.5, 0.3, 0.3, 1}), FatalError);
}

TEST(PerfModel, PublishedOpsCounts)
{
    EXPECT_DOUBLE_EQ(basecallerOps(BasecallerKind::Guppy).opsPerChunk,
                     2412e6);
    EXPECT_DOUBLE_EQ(
        basecallerOps(BasecallerKind::GuppyLite).opsPerChunk, 141e6);
    EXPECT_DOUBLE_EQ(sdtwOpsPerClassification(), 1400e6);
    EXPECT_DOUBLE_EQ(sdtwMemoryFootprintBytes(), 60e3);
}

TEST(PerfModel, JetsonLiteMatchesPaperThroughput)
{
    const BasecallerPerfModel jetson(BasecallerKind::GuppyLite,
                                     Device::JetsonXavier);
    EXPECT_DOUBLE_EQ(jetson.readUntilThroughputBasesPerSec(), 95700.0);
    // 41.5% of the MinION's 230,400 bases/s (paper §7.2).
    EXPECT_NEAR(jetson.poreCoverage(kMinionMaxBasesPerSec), 0.415,
                0.005);
}

TEST(PerfModel, TitanLiteKeepsUpWithMinion)
{
    const BasecallerPerfModel titan(BasecallerKind::GuppyLite,
                                    Device::TitanXp);
    EXPECT_GE(titan.readUntilThroughputBasesPerSec(),
              kMinionMaxBasesPerSec);
    EXPECT_DOUBLE_EQ(titan.poreCoverage(kMinionMaxBasesPerSec), 1.0);
}

TEST(PerfModel, LatenciesMatchPaper)
{
    const BasecallerPerfModel lite(BasecallerKind::GuppyLite,
                                   Device::TitanXp);
    const BasecallerPerfModel hac(BasecallerKind::Guppy,
                                  Device::TitanXp);
    EXPECT_DOUBLE_EQ(lite.decisionLatencyMs(), 149.0);
    EXPECT_GT(hac.decisionLatencyMs(), 1000.0);
    // 149 ms at 450 b/s ~ 60-70 wasted bases per decision (§7.2).
    EXPECT_NEAR(lite.wastedBasesPerDecision(), 67.0, 5.0);
}

TEST(PerfModel, HacSlowerThanLiteEverywhere)
{
    for (Device device : {Device::TitanXp, Device::JetsonXavier}) {
        const BasecallerPerfModel lite(BasecallerKind::GuppyLite,
                                       device);
        const BasecallerPerfModel hac(BasecallerKind::Guppy, device);
        EXPECT_LT(hac.readUntilThroughputBasesPerSec(),
                  lite.readUntilThroughputBasesPerSec());
        EXPECT_GT(hac.decisionLatencyMs(), lite.decisionLatencyMs());
    }
    EXPECT_EQ(allBasecallerPerfModels().size(), 4u);
}

} // namespace
} // namespace sf::basecall
