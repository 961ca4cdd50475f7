/**
 * @file
 * Tests for the FM-index substrate, including the FM-index == naive-search
 * property sweep.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/suffix_array.hpp"
#include "genome/synthetic.hpp"

namespace sf::fmindex {
namespace {

const genome::Genome &
text_genome()
{
    static const genome::Genome g =
        genome::makeSynthetic("fm-ref", {.length = 20000, .seed = 401});
    return g;
}

/** Naive exact-occurrence finder for cross-checking. */
std::vector<std::uint32_t>
naiveFind(const genome::Genome &genome,
          const std::vector<genome::Base> &pattern)
{
    std::vector<std::uint32_t> out;
    if (pattern.empty() || pattern.size() > genome.size())
        return out;
    for (std::size_t i = 0; i + pattern.size() <= genome.size(); ++i) {
        bool match = true;
        for (std::size_t j = 0; j < pattern.size(); ++j) {
            if (genome[i + j] != pattern[j]) {
                match = false;
                break;
            }
        }
        if (match)
            out.push_back(std::uint32_t(i));
    }
    return out;
}

TEST(SuffixArray, SortsAllSuffixes)
{
    const genome::Genome tiny("t", std::string("ACGTACG"));
    const auto text = packText(tiny);
    const auto sa = buildSuffixArray(text);
    ASSERT_EQ(sa.size(), text.size());
    // Suffixes must be in strictly increasing lexicographic order.
    for (std::size_t i = 1; i < sa.size(); ++i) {
        const std::vector<std::uint8_t> a(text.begin() + sa[i - 1],
                                          text.end());
        const std::vector<std::uint8_t> b(text.begin() + sa[i],
                                          text.end());
        EXPECT_LT(a, b);
    }
    // Sentinel suffix sorts first.
    EXPECT_EQ(sa[0], text.size() - 1);
}

TEST(SuffixArray, BwtInvertsViaLfMapping)
{
    const genome::Genome tiny("t", std::string("GATTACA"));
    const auto text = packText(tiny);
    const auto sa = buildSuffixArray(text);
    const auto bwt = buildBwt(text, sa);
    EXPECT_EQ(bwt.size(), text.size());
    // The BWT must be a permutation of the text.
    auto sorted_text = text;
    auto sorted_bwt = bwt;
    std::sort(sorted_text.begin(), sorted_text.end());
    std::sort(sorted_bwt.begin(), sorted_bwt.end());
    EXPECT_EQ(sorted_text, sorted_bwt);
}

TEST(SuffixArray, RequiresSentinel)
{
    std::vector<std::uint8_t> no_sentinel{1, 2, 3};
    EXPECT_THROW(buildSuffixArray(no_sentinel), FatalError);
}

class FmIndexPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FmIndexPropertyTest, MatchesNaiveSearch)
{
    static const FmIndex index(text_genome());
    Rng rng(GetParam());

    // Half the patterns are genuine substrings, half random.
    std::vector<genome::Base> pattern;
    const auto len = std::size_t(rng.uniformInt(4, 24));
    if (rng.bernoulli(0.5)) {
        const auto start = std::size_t(
            rng.uniformInt(0, long(text_genome().size() - len)));
        pattern = text_genome().slice(start, len);
    } else {
        for (std::size_t i = 0; i < len; ++i)
            pattern.push_back(
                static_cast<genome::Base>(rng.uniformInt(0, 3)));
    }

    const auto expected = naiveFind(text_genome(), pattern);
    const auto range = index.locateRange(pattern);
    EXPECT_EQ(range.count(), expected.size());
    const auto positions = index.positions(range, 1u << 20);
    EXPECT_EQ(positions, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmIndexPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(FmIndex, CountMatchesOccurrences)
{
    const FmIndex index(text_genome());
    const auto pattern = text_genome().slice(777, 12);
    EXPECT_EQ(index.count(pattern),
              naiveFind(text_genome(), pattern).size());
    EXPECT_GE(index.count(pattern), 1u);
}

TEST(FmIndex, AbsentPatternEmptyRange)
{
    const FmIndex index(text_genome());
    // 20 kb of random sequence almost surely misses this 24-mer.
    std::vector<genome::Base> pattern(24, genome::Base::A);
    pattern[7] = genome::Base::C;
    pattern[13] = genome::Base::G;
    pattern[21] = genome::Base::T;
    if (naiveFind(text_genome(), pattern).empty()) {
        EXPECT_TRUE(index.locateRange(pattern).empty());
        EXPECT_EQ(index.count(pattern), 0u);
    }
}

TEST(FmIndex, PositionLimitRespected)
{
    const FmIndex index(text_genome());
    const std::vector<genome::Base> single{genome::Base::A};
    const auto range = index.locateRange(single);
    EXPECT_GT(range.count(), 100u);
    EXPECT_EQ(index.positions(range, 10).size(), 10u);
}

} // namespace
} // namespace sf::fmindex
