/// \file fuzz_charge_state.cpp
/// \brief Differential fuzzing of the incremental charge-state kernel: cached
///        local potentials vs. fresh naive sums under random committed move
///        sequences, and the kernel-backed engines vs. pre-refactor naive
///        reference implementations.

#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;

phys::SimAnnealParameters anneal_for_fuzzing(std::uint64_t seed)
{
    phys::SimAnnealParameters params;
    params.num_instances = 8;  // trajectory fidelity is per instance; 8 streams suffice
    params.seed = seed;
    return params;
}

TEST(FuzzChargeState, CacheMatchesNaiveOnRandomMoveSequences)
{
    const auto budget = testkit::fuzz_budget(0xcace'0001, 30);
    const phys::SimulationParameters sim_params{};
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng);
        const auto verdict = testkit::charge_state_differential(canvas, sim_params,
                                                                anneal_for_fuzzing(seed), seed);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("charge-state", budget.base_seed, i);
    }
}

TEST(FuzzChargeState, SparseCanvasesAtTheSecondCalibrationPoint)
{
    const auto budget = testkit::fuzz_budget(0xcace'0002, 15);
    phys::SimulationParameters sim_params;
    sim_params.mu_minus = -0.28;  // the paper's second operating point
    testkit::CanvasOptions options;
    options.max_dots = 10;
    options.max_column = 20;
    options.max_dimer_row = 10;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng, options);
        const auto verdict = testkit::charge_state_differential(canvas, sim_params,
                                                                anneal_for_fuzzing(seed), seed);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("charge-state-sparse", budget.base_seed, i);
    }
}

/// Canvases whose mu_minus is calibrated (within 0.1 eV of the default) so
/// that the ground state holds a charged site 1e-13 eV below E_F. A
/// viability threshold in the shared branch-and-bound that is even a few meV
/// too tight prunes that ground state, and the naive brute force then finds
/// a lower energy or a larger degeneracy (the state is degenerate with the
/// same configuration with that site neutral). Random canvases at a fixed
/// mu_minus rarely hold such a site.
TEST(FuzzChargeState, GroundStatesWithAChargedSiteJustBelowTheFermiLevel)
{
    const auto budget = testkit::fuzz_budget(0xcace'0003, 40);
    testkit::CanvasOptions options;
    options.min_dots = 3;
    options.max_dots = 10;
    std::uint64_t calibrated = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto instance = testkit::near_threshold_canvas(rng, options);
        if (!instance.has_value())
        {
            continue;
        }
        ++calibrated;
        const auto verdict = testkit::charge_state_differential(
            instance->canvas, instance->params, anneal_for_fuzzing(seed), seed);
        ASSERT_TRUE(verdict.ok)
            << verdict.detail << "\nmu_minus = " << instance->params.mu_minus << '\n'
            << testkit::reproducer("charge-state-threshold", budget.base_seed, i);
    }
    EXPECT_GE(calibrated * 4, budget.iterations) << "too few canvases calibrated";
}

/// Mutation coverage: a commit that updates the configuration but skips the
/// cache update must be detected by the very next cache comparison.
TEST(FuzzChargeState, OracleCatchesSkippedCacheUpdate)
{
    const std::vector<phys::SiDBSite> canvas{{0, 0, 0}, {4, 1, 0}, {8, 2, 1}, {2, 3, 0}};
    const phys::SimulationParameters sim_params{};

    const auto mutant = testkit::charge_state_differential(
        canvas, sim_params, anneal_for_fuzzing(0xbad5eed), 0xbad5eed, 64, 1e-12,
        testkit::ChargeStateFault::skip_cache_update);
    ASSERT_FALSE(mutant.ok) << "oracle missed a skipped cache update";
    EXPECT_NE(mutant.detail.find("drifted"), std::string::npos) << mutant.detail;
}

}  // namespace
