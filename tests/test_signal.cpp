/**
 * @file
 * Unit tests for sf::signal — ADC, the nanopore signal simulator,
 * and dataset generation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "genome/synthetic.hpp"
#include "pore/kmer_model.hpp"
#include "signal/adc.hpp"
#include "signal/dataset.hpp"
#include "signal/read.hpp"
#include "signal/simulator.hpp"

namespace sf::signal {
namespace {

const pore::KmerModel &
model()
{
    static const pore::KmerModel m = pore::KmerModel::makeR941();
    return m;
}

TEST(Adc, CodesCoverRange)
{
    const Adc adc(40.0, 160.0);
    EXPECT_EQ(adc.digitize(40.0), 0u);
    EXPECT_EQ(adc.digitize(160.0), kAdcMax);
    EXPECT_EQ(adc.digitize(-10.0), 0u);    // rail clamp
    EXPECT_EQ(adc.digitize(500.0), kAdcMax);
}

TEST(Adc, RoundTripWithinLsb)
{
    const Adc adc(40.0, 160.0);
    const double lsb = (160.0 - 40.0) / double(kAdcMax);
    for (double pa = 41.0; pa < 159.0; pa += 3.7)
        EXPECT_NEAR(adc.toPa(adc.digitize(pa)), pa, lsb);
}

TEST(Adc, DegenerateRangeIsFatal)
{
    EXPECT_THROW(Adc(100.0, 100.0), FatalError);
    EXPECT_THROW(Adc(160.0, 40.0), FatalError);
}

ReadRecord
simulateToy(std::size_t bases, std::uint64_t seed,
            SimulatorConfig config = {})
{
    const genome::Genome g =
        genome::makeSynthetic("toy", {.length = bases, .seed = seed});
    const SignalSimulator sim(model(), config);
    ReadRecord record;
    record.bases = g.bases();
    Rng rng(seed * 31 + 7);
    sim.simulate(record, rng);
    return record;
}

TEST(Simulator, DwellsSumToSampleCount)
{
    const ReadRecord read = simulateToy(400, 1);
    std::size_t total = 0;
    for (auto d : read.dwells)
        total += d;
    EXPECT_EQ(total, read.raw.size());
    EXPECT_EQ(read.dwells.size(),
              read.bases.size() - pore::KmerModel::kK + 1);
}

TEST(Simulator, SamplesPerBaseNearSampleRateOverSpeed)
{
    const ReadRecord read = simulateToy(3000, 2);
    const double spb = double(read.raw.size()) / double(read.dwells.size());
    // 4000 Hz / ~450 b/s ~ 8.9 samples/base, with rate jitter.
    EXPECT_GT(spb, 5.5);
    EXPECT_LT(spb, 14.0);
    EXPECT_NEAR(4000.0 / read.translocationRate, spb, 1.2);
}

TEST(Simulator, DeterministicForSeed)
{
    const ReadRecord a = simulateToy(300, 3);
    const ReadRecord b = simulateToy(300, 3);
    ASSERT_EQ(a.raw.size(), b.raw.size());
    EXPECT_EQ(a.raw, b.raw);
}

TEST(Simulator, TooShortReadYieldsNoSamples)
{
    const SignalSimulator sim(model());
    ReadRecord record;
    record.bases = std::vector<genome::Base>(3, genome::Base::A);
    Rng rng(4);
    sim.simulate(record, rng);
    EXPECT_TRUE(record.raw.empty());
    EXPECT_TRUE(record.dwells.empty());
}

TEST(Simulator, SignalCorrelatesWithExpectedLevels)
{
    // With noise suppressed, the measured (pA-converted) signal must
    // track the k-mer model's expected levels closely.
    SimulatorConfig config;
    config.noiseScale = 0.01;
    config.driftPaPerSample = 0.0;
    config.gainStdv = 0.0;
    config.offsetStdvPa = 0.0;
    config.spikeProbability = 0.0;
    config.transitionAlpha = 1.0; // disable the sensor low-pass
    const ReadRecord read = simulateToy(500, 5, config);
    const SignalSimulator sim(model(), config);

    const auto expected = model().expectedSignalPa(read.bases);
    std::size_t sample = 0;
    RunningStats err;
    for (std::size_t w = 0; w < read.dwells.size(); ++w) {
        for (int s = 0; s < read.dwells[w]; ++s) {
            const double pa = sim.adc().toPa(read.raw[sample++]);
            err.add(std::abs(pa - double(expected[w])));
        }
    }
    EXPECT_LT(err.mean(), 0.25); // within ADC quantisation + tiny noise
}

TEST(Simulator, OffsetMismatchSpreadsPerReadMeans)
{
    // The per-pore bias-voltage mismatch (Figure 8a) must show up as
    // spread in per-read raw means; with mismatch disabled the means
    // cluster tightly.
    const genome::Genome g =
        genome::makeSynthetic("t", {.length = 400, .seed = 70});
    auto spread_for = [&](double offset_stdv) {
        SimulatorConfig config;
        config.gainStdv = 0.0;
        config.offsetStdvPa = offset_stdv;
        const SignalSimulator sim(model(), config);
        RunningStats means;
        Rng rng(71);
        for (int r = 0; r < 16; ++r) {
            ReadRecord read;
            read.bases = g.bases();
            sim.simulate(read, rng);
            RunningStats m;
            for (auto s : read.raw)
                m.add(s);
            means.add(m.mean());
        }
        return means.stdev();
    };
    EXPECT_GT(spread_for(15.0), 3.0 * spread_for(0.0));
}

TEST(Simulator, PrefixReturnsLeadingSamples)
{
    const ReadRecord read = simulateToy(400, 6);
    const auto prefix = read.prefix(100);
    ASSERT_EQ(prefix.size(), 100u);
    for (std::size_t i = 0; i < prefix.size(); ++i)
        EXPECT_EQ(prefix[i], read.raw[i]);
    EXPECT_EQ(read.prefix(1u << 30).size(), read.raw.size());
}

TEST(ReadLengthDist, RespectsTruncation)
{
    Rng rng(7);
    ReadLengthDist dist{5000.0, 0.6, 1000, 20000};
    for (int i = 0; i < 2000; ++i) {
        const auto len = dist.sample(rng);
        EXPECT_GE(len, 1000u);
        EXPECT_LE(len, 20000u);
    }
}

TEST(ReadLengthDist, MeanApproximatelyCorrect)
{
    Rng rng(8);
    ReadLengthDist dist{6000.0, 0.5, 300, 60000};
    RunningStats stats;
    for (int i = 0; i < 5000; ++i)
        stats.add(double(dist.sample(rng)));
    EXPECT_NEAR(stats.mean(), 6000.0, 400.0);
}

class DatasetTest : public ::testing::Test
{
  protected:
    DatasetTest()
        : target_(genome::makeSynthetic("virus", {.length = 20000,
                                                  .seed = 41})),
          background_(genome::makeSynthetic("host", {.length = 200000,
                                                     .seed = 42})),
          sim_(model()), gen_(target_, background_, sim_)
    {}

    genome::Genome target_;
    genome::Genome background_;
    SignalSimulator sim_;
    DatasetGenerator gen_;
};

TEST_F(DatasetTest, FractionApproximatelyRespected)
{
    DatasetSpec spec;
    spec.numReads = 400;
    spec.targetFraction = 0.25;
    spec.seed = 50;
    const Dataset data = gen_.generate(spec);
    EXPECT_EQ(data.reads.size(), 400u);
    EXPECT_NEAR(double(data.targetCount()), 100.0, 30.0);
    EXPECT_EQ(data.targetCount() + data.backgroundCount(),
              data.reads.size());
}

TEST_F(DatasetTest, DeterministicForSeed)
{
    DatasetSpec spec;
    spec.numReads = 20;
    spec.seed = 51;
    const Dataset a = gen_.generate(spec);
    const Dataset b = gen_.generate(spec);
    ASSERT_EQ(a.reads.size(), b.reads.size());
    for (std::size_t i = 0; i < a.reads.size(); ++i) {
        EXPECT_EQ(a.reads[i].raw, b.reads[i].raw);
        EXPECT_EQ(a.reads[i].origin, b.reads[i].origin);
    }
}

TEST_F(DatasetTest, ReadsCarryConsistentGroundTruth)
{
    DatasetSpec spec;
    spec.numReads = 50;
    spec.targetFraction = 0.5;
    spec.seed = 52;
    const Dataset data = gen_.generate(spec);
    for (const auto &read : data.reads) {
        const auto &source =
            read.isTarget() ? target_ : background_;
        EXPECT_EQ(read.sourceName, source.name());
        ASSERT_LE(read.sourcePos + read.lengthBases(), source.size());
        auto fragment = source.slice(read.sourcePos, read.lengthBases());
        if (read.reverseStrand)
            fragment = genome::reverseComplement(fragment);
        EXPECT_EQ(fragment, read.bases);
    }
}

TEST_F(DatasetTest, FragmentLengthClampedToGenome)
{
    Rng rng(53);
    const auto read =
        gen_.sampleRead(ReadOrigin::Target, 1u << 24, rng, 0);
    EXPECT_EQ(read.lengthBases(), target_.size());
}

TEST_F(DatasetTest, InvalidFractionIsFatal)
{
    DatasetSpec spec;
    spec.targetFraction = 1.5;
    EXPECT_THROW(gen_.generate(spec), FatalError);
}

} // namespace
} // namespace sf::signal
