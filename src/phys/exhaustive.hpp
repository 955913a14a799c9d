/// \file exhaustive.hpp
/// \brief Exhaustive (branch-and-bound) ground-state finder for SiDB charge
///        systems — the reproduction of SiQAD's exact ground-state engine.

#pragma once

#include "core/run_control.hpp"
#include "phys/model.hpp"

namespace bestagon::phys
{

/// Finds the configuration minimizing the grand potential F by a
/// branch-and-bound search over all 2^N two-state configurations.
///
/// Pruning exploits the monotonicity of local potentials: (1) a partial
/// configuration in which an already-negative site violates
/// mu + v_i <= stability_tolerance (the leaf check's own threshold) can
/// never become population stable, and (2) the optimistic completion
/// bound F_partial + sum_unassigned min(0, mu + v_i) never overestimates.
///
/// Practical up to roughly 40 sites for gate-sized structures.
/// The returned result also counts degenerate near-ground configurations
/// (within \p degeneracy_tolerance of the minimum).
///
/// The search runs on the shared incremental charge-state kernel
/// (charge_state.hpp): branching commits O(n) row updates to the cached
/// local potentials, prune/bound tests are O(1) cache reads, and leaf
/// validity checks cost O(n^2) instead of the naive O(n^3).
///
/// A limited \p run budget is polled sparsely during the search; on stop the
/// best configuration found so far is returned with complete = false and
/// cancelled = true. An unlimited budget leaves the search bit-identical.
[[nodiscard]] GroundStateResult exhaustive_ground_state(const SiDBSystem& system,
                                                        double degeneracy_tolerance,
                                                        const core::RunBudget& run = {});

/// Overload reading the degeneracy window from the system's parameters
/// (SimulationParameters::energy_tolerance) — the default everywhere since
/// the tolerance was hoisted out of the call sites.
[[nodiscard]] GroundStateResult exhaustive_ground_state(const SiDBSystem& system,
                                                        const core::RunBudget& run = {});

}  // namespace bestagon::phys
