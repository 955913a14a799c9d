#include "logic/exact_synthesis.hpp"
#include "logic/npn.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

namespace
{

using namespace bestagon::logic;

TEST(ExactSynthesis, ConstantFunctions)
{
    const auto net0 = exact_synthesize(TruthTable::constant(2, false));
    ASSERT_TRUE(net0.has_value());
    EXPECT_TRUE(net0->simulate()[0].is_const0());
    const auto net1 = exact_synthesize(TruthTable::constant(3, true));
    ASSERT_TRUE(net1.has_value());
    EXPECT_TRUE(net1->simulate()[0].is_const1());
}

TEST(ExactSynthesis, Projections)
{
    const auto net = exact_synthesize(TruthTable::nth_var(3, 1));
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->simulate()[0], TruthTable::nth_var(3, 1));
    EXPECT_EQ(count_two_input_gates(*net), 0U);

    const auto neg = exact_synthesize(~TruthTable::nth_var(2, 0));
    ASSERT_TRUE(neg.has_value());
    EXPECT_EQ(neg->simulate()[0], ~TruthTable::nth_var(2, 0));
}

TEST(ExactSynthesis, SingleGateFunctions)
{
    for (const char* bits : {"1000", "1110", "0110", "0111", "0001", "1001"})
    {
        const auto f = TruthTable::from_binary(bits);
        const auto net = exact_synthesize(f);
        ASSERT_TRUE(net.has_value()) << bits;
        EXPECT_EQ(net->simulate()[0], f) << bits;
        EXPECT_EQ(count_two_input_gates(*net), 1U) << bits;
    }
}

TEST(ExactSynthesis, Xor3NeedsTwoGates)
{
    const auto f = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1) ^ TruthTable::nth_var(3, 2);
    const auto net = exact_synthesize(f);
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->simulate()[0], f);
    EXPECT_EQ(count_two_input_gates(*net), 2U);
}

TEST(ExactSynthesis, DeclineIsCertifiedMinimality)
{
    // XOR3 needs two gates: capping at one must yield a *certified* decline —
    // the r = 1 refutation carries a checked DRAT proof, no budget involved
    const auto f = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1) ^ TruthTable::nth_var(3, 2);
    SynthesisStats stats;
    const auto net = exact_synthesize(f, 1, 50000, &stats, /*certify_unsat=*/true);
    EXPECT_FALSE(net.has_value());
    EXPECT_EQ(stats.unsat_steps, 1U);
    EXPECT_EQ(stats.unknown_steps, 0U);
    EXPECT_EQ(stats.proofs_checked, 1U);
    EXPECT_EQ(stats.proof_failures, 0U);
    EXPECT_TRUE(stats.decline_is_certified());
}

TEST(ExactSynthesis, BudgetExhaustionIsNotCertified)
{
    // a 1-conflict budget cannot refute anything non-trivial: the decline
    // must be flagged as unknown, not as a minimality proof
    const auto f = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1) ^ TruthTable::nth_var(3, 2);
    SynthesisStats stats;
    const auto net = exact_synthesize(f, 1, 1, &stats, /*certify_unsat=*/true);
    EXPECT_FALSE(net.has_value());
    EXPECT_GT(stats.unknown_steps, 0U);
    EXPECT_FALSE(stats.decline_is_certified());
}

TEST(ExactSynthesis, MajorityNeedsFourGates)
{
    TruthTable f{3};
    for (unsigned t = 0; t < 8; ++t)
    {
        f.set_bit(t, __builtin_popcount(t) >= 2);
    }
    const auto net = exact_synthesize(f);
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->simulate()[0], f);
    // MAJ = ((a^b) & (a^c)) ^ a is optimal in the XAG cost model
    EXPECT_EQ(count_two_input_gates(*net), 4U);
}

/// Property: synthesized networks always realize the requested function.
TEST(ExactSynthesis, RandomFunctionsAreRealizedCorrectly)
{
    std::mt19937 rng{2024};
    for (int iter = 0; iter < 20; ++iter)
    {
        const unsigned n = 2 + rng() % 2;
        TruthTable f{n};
        for (std::uint64_t t = 0; t < f.num_bits(); ++t)
        {
            f.set_bit(t, (rng() & 1U) != 0);
        }
        const auto net = exact_synthesize(f);
        ASSERT_TRUE(net.has_value());
        EXPECT_EQ(net->simulate()[0], f);
    }
}

TEST(NpnDatabase, CachesResults)
{
    NpnDatabase db;
    // the AND class, looked up by its canonical representative
    const auto canon = canonize_npn(TruthTable::from_binary("1000")).canonical;
    const auto* first = db.lookup(canon);
    ASSERT_NE(first, nullptr);
    const auto* second = db.lookup(canon);
    EXPECT_EQ(first, second);  // cached pointer identity
    EXPECT_EQ(db.num_entries(), 1U);
}

TEST(NpnDatabase, ImplementationsAreMinimal)
{
    NpnDatabase db;
    const auto* impl = db.lookup(TruthTable::from_binary("0110"));
    ASSERT_NE(impl, nullptr);
    EXPECT_EQ(count_two_input_gates(*impl), 1U);
}

TEST(NpnDatabase, ServesOnlyCanonicalRepresentatives)
{
    // "1000" (AND) is not its class's representative: the table does not
    // hold it, and nothing synthesizes it on the fly
    NpnDatabase db;
    EXPECT_EQ(db.lookup(TruthTable::from_binary("1000")), nullptr);
    EXPECT_EQ(db.lookup(TruthTable{5}), nullptr);
    EXPECT_EQ(db.num_entries(), 2U);
    EXPECT_EQ(db.num_synthesis_failures(), 2U);
}

/// Every table entry: one per NPN class of 2..4 inputs (4 / 14 / 222), each
/// simulating to its canonical function with at most 7 two-input gates.
TEST(NpnDatabase, TableCoversEveryClassCorrectly)
{
    NpnDatabase db;
    std::size_t served = 0;
    for (unsigned n = 2; n <= 4; ++n)
    {
        std::set<std::uint64_t> classes;
        for (std::uint32_t bits = 0; bits < (1U << (1U << n)); ++bits)
        {
            TruthTable f{n};
            for (std::uint64_t t = 0; t < f.num_bits(); ++t)
            {
                f.set_bit(t, ((bits >> t) & 1U) != 0);
            }
            const auto canon = canonize_npn(f).canonical;
            if (!classes.insert(canon.words()[0]).second)
            {
                continue;
            }
            const auto* impl = db.lookup(canon);
            ASSERT_NE(impl, nullptr) << n << " inputs, " << canon.to_hex();
            ASSERT_EQ(impl->num_pis(), n);
            ASSERT_EQ(impl->num_pos(), 1U);
            EXPECT_EQ(impl->simulate()[0], canon) << canon.to_hex();
            EXPECT_LE(count_two_input_gates(*impl), 7U) << canon.to_hex();
            ++served;
        }
        EXPECT_EQ(classes.size(), n == 2 ? 4U : n == 3 ? 14U : 222U);
    }
    EXPECT_EQ(served, 240U);
    EXPECT_EQ(NpnDatabase::table_size(), served);  // no entry left unchecked
    EXPECT_EQ(db.num_synthesis_failures(), 0U);
}

}  // namespace
