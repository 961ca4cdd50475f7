#include "pipeline/virus_pipeline.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "sdtw/threshold.hpp"

namespace sf::pipeline {

VirusDetectionPipeline::VirusDetectionPipeline(
    const genome::Genome &reference,
    const pore::ReferenceSquiggle &reference_squiggle,
    const basecall::OracleBasecaller &basecaller, PipelineOptions options)
    : reference_(reference), referenceSquiggle_(reference_squiggle),
      basecaller_(basecaller), options_(options),
      aligner_(reference), classifier_(reference_squiggle)
{
    threshold_ = options_.threshold;
}

PipelineReport
VirusDetectionPipeline::run(const signal::Dataset &specimen)
{
    PipelineReport report;
    report.consensus = reference_; // placeholder until assembled

    // Calibrate the ejection threshold on a labelled sample when the
    // caller did not provide one.  In deployment the threshold ships
    // with the reference (paper §5.2: "relatively robust across
    // species and sequencing runs").
    if (options_.useSquiggleFilter && threshold_ == 0) {
        std::vector<signal::ReadRecord> sample;
        for (const auto &read : specimen.reads) {
            if (sample.size() >= options_.calibrationReads)
                break;
            sample.push_back(read);
        }
        // A labelled balanced set is required; fall back to keeping
        // everything when the sample lacks one of the classes.
        const auto costs = sdtw::collectCosts(
            referenceSquiggle_, sample, options_.prefixSamples,
            classifier_.config());
        bool has_target = false, has_decoy = false;
        for (const auto &cost : costs) {
            (cost.isTarget ? has_target : has_decoy) = true;
        }
        if (has_target && has_decoy) {
            threshold_ = Cost(sdtw::bestF1Threshold(costs));
        } else {
            warn("calibration sample lacks both classes; filter "
                 "disabled for this run");
            options_.useSquiggleFilter = false;
        }
    }
    if (options_.useSquiggleFilter) {
        classifier_.setSingleStage(options_.prefixSamples, threshold_);
    }

    assembly::ReferenceGuidedAssembler assembler(
        reference_, aligner_, options_.coverageTarget);

    // Classify a batch of reads at a time — independent alignments
    // fan out across threads — then consume decisions in read order
    // so reports are identical to serial classification.  Coverage is
    // re-checked between batches, bounding wasted filter work once
    // the target is met.
    const auto &reads = specimen.reads;
    const std::size_t batch_size = options_.filterBatchSize > 0
                                       ? options_.filterBatchSize
                                       : std::max<std::size_t>(1, reads.size());
    bool coverage_met = false;
    for (std::size_t base = 0; base < reads.size() && !coverage_met;
         base += batch_size) {
        const std::size_t count =
            std::min(batch_size, reads.size() - base);
        const std::span<const signal::ReadRecord> block(
            reads.data() + base, count);

        std::vector<sdtw::Classification> decisions;
        if (options_.useSquiggleFilter) {
            decisions =
                classifier_.processBatch(block, options_.filterThreads);
        }

        for (std::size_t k = 0; k < block.size(); ++k) {
            const auto &read = block[k];
            ++report.readsProcessed;

            bool keep = true;
            if (options_.useSquiggleFilter) {
                keep = decisions[k].keep;
                report.filterDecisions.add(read.isTarget(), keep);
            }
            if (!keep)
                continue;
            ++report.readsKept;

            const auto bases = basecaller_.callAll(read);
            if (bases.empty())
                continue;
            ++report.readsBasecalled;

            if (assembler.addRead(bases))
                ++report.readsAligned;
            if (assembler.coverageReached()) {
                coverage_met = true;
                break;
            }
        }
    }

    report.assembly = assembler.stats();
    report.coverageReached = assembler.coverageReached();
    const auto consensus = assembler.assemble();
    report.consensus = consensus.consensus;
    report.variants = consensus.variants;

    // Feed the measured operating point into the analytical model.
    readuntil::SequencingParams params;
    params.genomeBases = double(reference_.size());
    params.coverage = options_.coverageTarget;
    const readuntil::ReadUntilModel model(params);
    if (options_.useSquiggleFilter &&
        report.filterDecisions.tp + report.filterDecisions.fn > 0) {
        readuntil::ClassifierParams cp;
        cp.tpr = report.filterDecisions.recall();
        cp.fpr = report.filterDecisions.falsePositiveRate();
        cp.prefixSamples = double(options_.prefixSamples);
        report.modeledRuntime = model.withReadUntil(cp);
    } else {
        report.modeledRuntime = model.withoutReadUntil();
    }
    return report;
}

} // namespace sf::pipeline
