#ifndef SF_BASECALL_BASECALLER_HPP
#define SF_BASECALL_BASECALLER_HPP

/**
 * @file
 * Basecall accuracy metric.
 *
 * The baseline Read Until pipeline (paper §3.1, Figure 4) basecalls a
 * read prefix with a DNN (Guppy) and aligns the bases with MiniMap2.
 * Guppy itself is closed-source and GPU-bound, so this library
 * substitutes a ground-truth oracle with controlled error injection
 * (oracle.hpp) and models Guppy's *computational* cost separately in
 * perf_model.hpp using the paper's published constants.  The identity
 * metric below scores a called sequence against the ground truth.
 */

#include <vector>

#include "genome/base.hpp"

namespace sf::basecall {

/**
 * Base-level identity between a called sequence and the ground truth,
 * computed with a banded edit-distance alignment: 1 - edits/length.
 */
double basecallIdentity(const std::vector<genome::Base> &called,
                        const std::vector<genome::Base> &truth);

} // namespace sf::basecall

#endif // SF_BASECALL_BASECALLER_HPP
