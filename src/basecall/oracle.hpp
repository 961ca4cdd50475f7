#ifndef SF_BASECALL_ORACLE_HPP
#define SF_BASECALL_ORACLE_HPP

/**
 * @file
 * Oracle basecaller: decodes via the simulator's ground truth, then
 * injects substitution/insertion/deletion errors at configurable
 * rates.  Used to sweep basecaller accuracy without paying decoding
 * cost, e.g. for the Guppy-vs-Guppy-lite accuracy axis in Figure 17a.
 */

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "genome/base.hpp"
#include "signal/read.hpp"

namespace sf::basecall {

/** Error-injection profile. */
struct ErrorProfile
{
    double substitutionRate = 0.03;
    double insertionRate = 0.01;
    double deletionRate = 0.01;
    std::uint64_t seed = 99;

    /** Total error rate (errors per true base). */
    double
    totalRate() const
    {
        return substitutionRate + insertionRate + deletionRate;
    }
};

/** Guppy high-accuracy profile (~95% read identity). */
ErrorProfile guppyHacProfile();

/** Guppy-lite / fast profile (~92% read identity). */
ErrorProfile guppyFastProfile();

/** Ground-truth basecaller with error injection. */
class OracleBasecaller
{
  public:
    explicit OracleBasecaller(ErrorProfile profile = {});

    /**
     * Decode the first @p prefix_samples raw samples of @p read into
     * bases (all samples when the prefix exceeds the read).
     */
    std::vector<genome::Base>
    call(const signal::ReadRecord &read,
         std::size_t prefix_samples) const;

    /** Decode the complete read. */
    std::vector<genome::Base>
    callAll(const signal::ReadRecord &read) const
    {
        return call(read, read.raw.size());
    }

    /** The error profile in effect. */
    const ErrorProfile &profile() const { return profile_; }

  private:
    ErrorProfile profile_;
};

} // namespace sf::basecall

#endif // SF_BASECALL_ORACLE_HPP
