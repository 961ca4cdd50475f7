#ifndef SF_PIPELINE_VIRUS_PIPELINE_HPP
#define SF_PIPELINE_VIRUS_PIPELINE_HPP

/**
 * @file
 * End-to-end virus detection pipeline (paper Figure 4): SquiggleFilter
 * classifies each read's squiggle prefix; kept reads are basecalled,
 * aligned, and piled up; once the coverage target is met the consensus
 * genome and its variants are called.  False positives fall out at the
 * alignment stage without harming the assembly (paper §5).
 */

#include <memory>
#include <vector>

#include "align/aligner.hpp"
#include "assembly/assembler.hpp"
#include "basecall/oracle.hpp"
#include "common/stats.hpp"
#include "genome/genome.hpp"
#include "genome/mutate.hpp"
#include "pore/reference_squiggle.hpp"
#include "readuntil/model.hpp"
#include "sdtw/filter.hpp"
#include "signal/dataset.hpp"

namespace sf::pipeline {

/** Pipeline configuration. */
struct PipelineOptions
{
    bool useSquiggleFilter = true;  //!< false = basecall-and-align-all
    std::size_t prefixSamples = 2000;
    Cost threshold = 0;             //!< 0 = calibrate on the input
    double coverageTarget = 30.0;
    /** Classifier accuracy assumed when calibrating on-the-fly. */
    std::size_t calibrationReads = 48;
    /**
     * Reads classified per SquiggleFilter batch.  Within a batch the
     * independent alignments fan out across worker threads (modelling
     * the pore-parallel accelerator tiles); between batches the
     * pipeline checks whether the coverage target has been met.
     * 0 = classify the whole specimen in one batch.
     */
    std::size_t filterBatchSize = 32;
    /** Worker threads per filter batch (0 = hardware concurrency). */
    unsigned filterThreads = 0;
};

/** End-to-end run report. */
struct PipelineReport
{
    ConfusionMatrix filterDecisions; //!< squiggle-filter accuracy
    std::size_t readsProcessed = 0;
    std::size_t readsKept = 0;
    std::size_t readsBasecalled = 0;
    std::size_t readsAligned = 0;
    assembly::AssemblyStats assembly;
    std::vector<genome::Variant> variants;
    genome::Genome consensus;
    bool coverageReached = false;
    /** Modeled sequencing runtime at the measured operating point. */
    readuntil::RuntimeEstimate modeledRuntime;
};

/** The integrated detector. */
class VirusDetectionPipeline
{
  public:
    /**
     * @param reference target genome (assembly coordinate system)
     * @param reference_squiggle precomputed squiggle of the same genome
     * @param basecaller decoder for kept reads
     */
    VirusDetectionPipeline(const genome::Genome &reference,
                           const pore::ReferenceSquiggle &reference_squiggle,
                           const basecall::OracleBasecaller &basecaller,
                           PipelineOptions options = {});

    /** Process a full specimen and produce the report. */
    PipelineReport run(const signal::Dataset &specimen);

    /** The classifier threshold in use (after calibration). */
    Cost threshold() const { return threshold_; }

  private:
    const genome::Genome &reference_;
    const pore::ReferenceSquiggle &referenceSquiggle_;
    const basecall::OracleBasecaller &basecaller_;
    PipelineOptions options_;
    align::ReadAligner aligner_;
    sdtw::SquiggleFilterClassifier classifier_;
    Cost threshold_ = 0;
};

} // namespace sf::pipeline

#endif // SF_PIPELINE_VIRUS_PIPELINE_HPP
