/**
 * @file
 * Microbenchmarks of the substrates: signal simulation, minimizer
 * indexing/mapping, FM-index queries, and the discrete-event Read
 * Until sequencer.
 */

#include <benchmark/benchmark.h>

#include "align/aligner.hpp"
#include "common/rng.hpp"
#include "fmindex/fm_index.hpp"
#include "pipeline/experiments.hpp"
#include "readuntil/sequencer.hpp"

using namespace sf;

namespace {

void
BM_SignalSimulation(benchmark::State &state)
{
    const auto &sim = pipeline::defaultSimulator();
    const auto bases = pipeline::lambdaGenome().slice(
        1000, std::size_t(state.range(0)));
    Rng rng(1);
    for (auto _ : state) {
        signal::ReadRecord read;
        read.bases = bases;
        sim.simulate(read, rng);
        benchmark::DoNotOptimize(read.raw.data());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_SignalSimulation)->Arg(1000)->Arg(4000);

void
BM_AlignerMap(benchmark::State &state)
{
    static const align::ReadAligner aligner(pipeline::lambdaGenome());
    const auto query = pipeline::lambdaGenome().slice(
        5000, std::size_t(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(aligner.map(query));
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AlignerMap)->Arg(500)->Arg(2000)->Arg(8000);

void
BM_FmIndexLocate(benchmark::State &state)
{
    static const fmindex::FmIndex index(pipeline::lambdaGenome());
    Rng rng(2);
    std::vector<std::vector<genome::Base>> patterns;
    for (int i = 0; i < 64; ++i) {
        const auto start = std::size_t(rng.uniformInt(
            0, long(pipeline::lambdaGenome().size() - 16)));
        patterns.push_back(
            pipeline::lambdaGenome().slice(start, 12));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            index.locateRange(patterns[i++ % patterns.size()]));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_FmIndexLocate);

void
BM_SequencerSim(benchmark::State &state)
{
    readuntil::SequencingParams params;
    params.targetFraction = 0.05;
    readuntil::ClassifierParams classifier;
    classifier.tpr = 0.95;
    classifier.fpr = 0.05;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        readuntil::SequencerSim sim(params, seed++);
        benchmark::DoNotOptimize(sim.runWithReadUntil(classifier));
    }
}
BENCHMARK(BM_SequencerSim);

} // namespace

BENCHMARK_MAIN();
