#include "phys/quicksim.hpp"

#include "phys/charge_state.hpp"
#include "phys/heuristic_instances.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bestagon::phys
{

namespace
{

/// Physically informed base distribution: starting from all-neutral,
/// repeatedly charge the site with the most negative flip delta
/// (mu + v_i) until no flip is downhill. Deterministic — shared by every
/// instance — and O(n^2) on the kernel (argmin scan is O(1) per site).
ChargeConfig max_population_fill(const SiDBSystem& system)
{
    const double tol = system.parameters().stability_tolerance;
    ChargeState state{system};
    for (;;)
    {
        double best_delta = -tol;
        std::size_t best_site = state.size();
        for (std::size_t i = 0; i < state.size(); ++i)
        {
            if (state.charge(i) == 0)
            {
                const double delta = state.delta_flip(i);
                if (delta < best_delta)
                {
                    best_delta = delta;
                    best_site = i;
                }
            }
        }
        if (best_site == state.size())
        {
            return state.config();
        }
        state.commit_flip(best_site);
    }
}

/// One QuickSim instance: perturb the shared base fill by removing a
/// deterministic-per-instance number of random electrons, redistribute the
/// population by Boltzmann-weighted adaptive hops over the cached deltas,
/// and quench. Returns the quenched (hence physically valid) configuration
/// and its grand potential.
std::pair<ChargeConfig, double> quicksim_instance(const SiDBSystem& system,
                                                  const QuickSimParameters& params,
                                                  const ChargeConfig& base_fill,
                                                  std::size_t instance, std::uint64_t seed,
                                                  const core::RunBudget& run)
{
    const std::size_t n = system.size();
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> uni{0.0, 1.0};

    // instance k removes k % (N+1) electrons from the base fill, so the
    // fan-out explores every population between "max fill" and "N fewer"
    ChargeConfig config = base_fill;
    std::vector<std::size_t> occupied;
    for (std::size_t i = 0; i < n; ++i)
    {
        if (config[i] != 0)
        {
            occupied.push_back(i);
        }
    }
    const std::size_t removals =
        occupied.empty() ? 0 : instance % (occupied.size() + 1);
    // bestagon-lint: no-poll-ok(bounded O(n) electron-removal setup; the hop loop below polls the budget every 64 hops)
    for (std::size_t r = 0; r < removals; ++r)
    {
        const std::size_t pick = rng() % occupied.size();
        config[occupied[pick]] = 0;
        occupied[pick] = occupied.back();
        occupied.pop_back();
    }

    ChargeState state{system, std::move(config)};
    double temperature = params.hop_temperature;
    std::vector<double> weights;
    std::vector<std::size_t> targets;
    for (unsigned hop = 0; hop < params.hops_per_instance; ++hop)
    {
        // sparse budget poll; bailing out early only shortens the hopping
        // phase — the quench below still guarantees a valid configuration
        if (run.limited() && (hop & 63U) == 0 && run.stopped())
        {
            break;
        }
        if (state.num_charges() == 0 || state.num_charges() == n)
        {
            break;  // no hop exists
        }
        // random occupied source (retry until one is hit; occupation is a
        // constant fraction, so this terminates quickly in expectation)
        std::size_t from = rng() % n;
        while (state.charge(from) == 0)
        {
            from = rng() % n;
        }
        // Boltzmann-weighted target over every neutral site: cached O(1)
        // deltas, weights shifted by the minimum so exp never overflows
        weights.clear();
        targets.clear();
        double min_delta = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < n; ++j)
        {
            if (state.charge(j) == 0)
            {
                min_delta = std::min(min_delta, state.delta_hop(from, j));
                targets.push_back(j);
            }
        }
        double total = 0.0;
        for (const std::size_t j : targets)
        {
            const double w = std::exp(-(state.delta_hop(from, j) - min_delta) / temperature);
            total += w;
            weights.push_back(total);  // cumulative for the draw below
        }
        const double draw = uni(rng) * total;
        std::size_t pick = targets.size() - 1;
        for (std::size_t t = 0; t < weights.size(); ++t)
        {
            if (draw < weights[t])
            {
                pick = t;
                break;
            }
        }
        // unconditional commit: the weighting itself is the acceptance rule
        state.commit_hop(from, targets[pick]);
        temperature *= params.hop_cooling;
    }

    // exact-resync before the descent, as in the annealing engine
    state.rebuild();
    state.quench();  // guarantees physical validity
    ChargeConfig quenched = state.config();
    const double f_final = system.grand_potential(quenched);
    return {std::move(quenched), f_final};
}

}  // namespace

GroundStateResult quicksim_ground_state(const SiDBSystem& system, const QuickSimParameters& params,
                                        const core::RunBudget& run)
{
    if (!(params.hop_temperature > 0.0) || !std::isfinite(params.hop_temperature))
    {
        throw std::invalid_argument{"QuickSimParameters: non-positive hop_temperature " +
                                    std::to_string(params.hop_temperature)};
    }
    const ChargeConfig base_fill = max_population_fill(system);
    return best_of_instances(system, params.num_instances, params.num_threads, params.seed, run,
                             [&](std::size_t i, std::uint64_t seed) {
                                 return quicksim_instance(system, params, base_fill, i, seed, run);
                             });
}

}  // namespace bestagon::phys
