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
/// This is the exact engine's search (ground_state_exact.hpp) run with
/// pruning tables that never prune: every site undecided, a population
/// window of [0, N] and a neutral-reach table of +inf. What remains is
/// energy-only pruning on the monotonicity of local potentials: (1) a partial
/// configuration in which an already-negative site violates
/// mu + v_i <= stability_tolerance (the leaf check's own threshold) can
/// never become population stable, and (2) the optimistic completion bound
/// F_partial + sum_unassigned min(0, mu + v_i) never overestimates. The
/// result is the reference the exact engine's gates are checked against
/// (gates on vs. gates off); the shared search itself is checked against a
/// naive 2^n brute force by the `charge_state_differential` oracle.
///
/// Practical up to roughly 40 sites for gate-sized structures. The returned
/// result also counts degenerate near-ground configurations (within
/// SimulationParameters::energy_tolerance of the minimum).
///
/// A limited \p run budget is polled sparsely during the search; on stop the
/// best configuration found so far is returned with complete = false and
/// cancelled = true. An unlimited budget leaves the search bit-identical.
[[nodiscard]] GroundStateResult exhaustive_ground_state(const SiDBSystem& system,
                                                        const core::RunBudget& run = {});

}  // namespace bestagon::phys
