/// \file heuristic_instances.hpp
/// \brief The instance fan-out and reduction shared by the heuristic
///        ground-state engines (simanneal, quicksim).

#pragma once

#include "core/run_control.hpp"
#include "core/thread_pool.hpp"
#include "phys/model.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace bestagon::phys
{

/// Runs `run_instance(i, core::derive_seed(seed, i))` for every instance
/// i < num_instances on `num_threads` workers and reduces the answers — each
/// a quenched (hence physically valid) configuration and its grand potential
/// — into a heuristic result (complete = false). Every instance runs on its
/// own RNG stream, so the outcome does not depend on the thread count.
///
/// The best answer is the lowest grand potential; a serial strict '<' in
/// instance order keeps the lowest index among ties. `degeneracy` counts the
/// *distinct* configurations tying it within energy_tolerance — a lower
/// bound on the true degeneracy. Slots are pre-filled with +inf, so
/// instances skipped after a stop never win, and the result carries
/// cancelled = true. An empty system gives F = 0; num_instances == 0 gives
/// an empty config with F = +inf and electrostatic = 0.
template <typename RunInstance>
[[nodiscard]] GroundStateResult best_of_instances(const SiDBSystem& system, unsigned num_instances,
                                                  unsigned num_threads, std::uint64_t seed,
                                                  const core::RunBudget& run,
                                                  RunInstance&& run_instance)
{
    GroundStateResult best;
    best.grand_potential = std::numeric_limits<double>::infinity();
    best.complete = false;
    best.degeneracy = 1;
    if (system.size() == 0)
    {
        best.grand_potential = 0.0;
        return best;
    }

    std::vector<std::pair<ChargeConfig, double>> instances(
        num_instances, {ChargeConfig{}, std::numeric_limits<double>::infinity()});
    core::parallel_for(num_threads, num_instances, run, [&](std::size_t i) {
        instances[i] = run_instance(i, core::derive_seed(seed, i));
    });
    best.cancelled = run.stopped();

    std::size_t best_index = instances.size();
    for (std::size_t i = 0; i < instances.size(); ++i)
    {
        if (instances[i].second < best.grand_potential)
        {
            best.grand_potential = instances[i].second;
            best_index = i;
        }
    }

    if (best_index < instances.size())
    {
        const double tol = system.parameters().energy_tolerance;
        std::vector<const ChargeConfig*> tied;
        // bestagon-lint: no-poll-ok(post-run degeneracy count over the already-collected instance results; all engine work is done)
        for (const auto& [config, f] : instances)
        {
            if (f <= best.grand_potential + tol)
            {
                const bool seen = std::any_of(tied.begin(), tied.end(),
                                              [&](const ChargeConfig* c) { return *c == config; });
                if (!seen)
                {
                    tied.push_back(&config);
                }
            }
        }
        best.degeneracy = static_cast<std::uint64_t>(tied.size());
        best.config = std::move(instances[best_index].first);
    }

    best.electrostatic = best.config.empty() ? 0.0 : system.electrostatic_energy(best.config);
    return best;
}

}  // namespace bestagon::phys
