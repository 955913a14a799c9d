#include "logic/npn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_set>

namespace
{

using namespace bestagon::logic;

TruthTable random_tt(unsigned n, std::mt19937& rng)
{
    TruthTable f{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t)
    {
        f.set_bit(t, (rng() & 1U) != 0);
    }
    return f;
}

TruthTable tt_from_bits(unsigned n, std::uint32_t bits)
{
    TruthTable f{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t)
    {
        f.set_bit(t, ((bits >> t) & 1U) != 0);
    }
    return f;
}

/// The enumeration-order reference: every (perm, flips, output) transform in
/// the order next_permutation x flips x output, each candidate rebuilt with
/// apply_npn_transform, the first strict minimum under compare() kept.
NpnCanonization reference_canonize(const TruthTable& f)
{
    const unsigned n = f.num_vars();
    std::vector<unsigned> perm(n);
    std::iota(perm.begin(), perm.end(), 0U);
    bool first = true;
    TruthTable best{n};
    NpnTransform best_forward;
    do
    {
        for (unsigned flips = 0; flips < (1U << n); ++flips)
        {
            for (unsigned out = 0; out < 2; ++out)
            {
                const NpnTransform t{perm, flips, out != 0};
                const auto candidate = apply_npn_transform(f, t);
                if (first || candidate.compare(best) < 0)
                {
                    first = false;
                    best = candidate;
                    best_forward = t;
                }
            }
        }
    } while (std::next_permutation(perm.begin(), perm.end()));

    NpnTransform inverse{std::vector<unsigned>(n), 0, best_forward.output_negated};
    for (unsigned i = 0; i < n; ++i)
    {
        inverse.perm[best_forward.perm[i]] = i;
        if ((best_forward.input_flips >> i) & 1U)
        {
            inverse.input_flips |= 1U << best_forward.perm[i];
        }
    }
    return {best, inverse};
}

void expect_matches_reference(const TruthTable& f)
{
    const auto got = canonize_npn(f);
    const auto want = reference_canonize(f);
    EXPECT_EQ(got.canonical, want.canonical) << f.to_hex();
    EXPECT_EQ(got.transform.perm, want.transform.perm) << f.to_hex();
    EXPECT_EQ(got.transform.input_flips, want.transform.input_flips) << f.to_hex();
    EXPECT_EQ(got.transform.output_negated, want.transform.output_negated) << f.to_hex();
}

/// Property: the stored transform maps the canonical form back to f.
TEST(Npn, TransformRoundTrip)
{
    std::mt19937 rng{42};
    for (int iter = 0; iter < 300; ++iter)
    {
        const unsigned n = 1 + rng() % 4;
        const auto f = random_tt(n, rng);
        const auto canon = canonize_npn(f);
        EXPECT_EQ(apply_npn_transform(canon.canonical, canon.transform), f);
    }
}

/// Property: NPN-equivalent functions share one canonical representative.
TEST(Npn, EquivalentFunctionsShareRepresentative)
{
    std::mt19937 rng{4242};
    for (int iter = 0; iter < 100; ++iter)
    {
        const unsigned n = 2 + rng() % 2;
        const auto f = random_tt(n, rng);
        // random transform of f
        NpnTransform t;
        t.perm.resize(n);
        for (unsigned i = 0; i < n; ++i)
        {
            t.perm[i] = i;
        }
        std::shuffle(t.perm.begin(), t.perm.end(), rng);
        t.input_flips = rng() % (1U << n);
        t.output_negated = (rng() & 1U) != 0;
        const auto g = apply_npn_transform(f, t);

        EXPECT_EQ(canonize_npn(f).canonical, canonize_npn(g).canonical);
    }
}

TEST(Npn, CanonicalIsIdempotent)
{
    std::mt19937 rng{5};
    for (int iter = 0; iter < 100; ++iter)
    {
        const auto f = random_tt(3, rng);
        const auto canon = canonize_npn(f).canonical;
        EXPECT_EQ(canonize_npn(canon).canonical, canon);
    }
}

TEST(Npn, TwoVariableClassCount)
{
    // there are exactly 4 NPN classes of 2-variable functions
    std::unordered_set<std::string> classes;
    for (unsigned bits = 0; bits < 16; ++bits)
    {
        TruthTable f{2};
        for (unsigned t = 0; t < 4; ++t)
        {
            f.set_bit(t, ((bits >> t) & 1U) != 0);
        }
        classes.insert(canonize_npn(f).canonical.to_binary());
    }
    EXPECT_EQ(classes.size(), 4U);
}

TEST(Npn, ThreeVariableClassCount)
{
    // there are exactly 14 NPN classes of 3-variable functions
    std::unordered_set<std::string> classes;
    for (unsigned bits = 0; bits < 256; ++bits)
    {
        TruthTable f{3};
        for (unsigned t = 0; t < 8; ++t)
        {
            f.set_bit(t, ((bits >> t) & 1U) != 0);
        }
        classes.insert(canonize_npn(f).canonical.to_binary());
    }
    EXPECT_EQ(classes.size(), 14U);
}

TEST(Npn, FourVariableClassCount)
{
    // there are exactly 222 NPN classes of 4-variable functions
    std::unordered_set<std::uint64_t> classes;
    for (std::uint32_t bits = 0; bits < (1U << 16); ++bits)
    {
        classes.insert(canonize_npn(tt_from_bits(4, bits)).canonical.words()[0]);
    }
    EXPECT_EQ(classes.size(), 222U);
}

TEST(Npn, FourVariableRoundTripIsExhaustive)
{
    for (std::uint32_t bits = 0; bits < (1U << 16); ++bits)
    {
        const auto f = tt_from_bits(4, bits);
        const auto canon = canonize_npn(f);
        ASSERT_EQ(apply_npn_transform(canon.canonical, canon.transform), f) << f.to_hex();
    }
}

TEST(Npn, MatchesEnumerationOrderReference)
{
    // bit-identical canonical AND transform, not just the same class: the
    // rewriter's output depends on which of several minimizing transforms wins
    for (unsigned n = 0; n <= 3; ++n)
    {
        for (std::uint32_t bits = 0; bits < (1U << (1U << n)); ++bits)
        {
            expect_matches_reference(tt_from_bits(n, bits));
        }
    }
    std::mt19937 rng{0x4e504e};
    for (int iter = 0; iter < 1000; ++iter)
    {
        expect_matches_reference(tt_from_bits(4, rng() & 0xFFFFU));
    }
}

TEST(Npn, RejectsTooManyVariables)
{
    EXPECT_THROW(static_cast<void>(canonize_npn(TruthTable{5})), std::invalid_argument);
}

}  // namespace
