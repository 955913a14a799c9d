/// \file exact_synthesis.hpp
/// \brief SAT-based exact synthesis of minimal Boolean chains (XAG-compatible)
///        and the exact NPN database used by the rewriting engine.
///
/// The paper's flow performs "cut-based logic rewriting with an exact NPN
/// database" [38]. As upstream, that database is a precomputed table: for
/// each of the 240 NPN classes of 2-, 3- and 4-input functions it holds the
/// Boolean chain (two-input gates over {AND, OR, XOR, AND-with-complemented-
/// input}, explicit inverters) that exact_synthesize returns at its defaults.
/// tools/gen_npn_db writes the table to src/logic/npn_db.inc; a flow run does
/// no SAT synthesis, so rewrite output does not depend on BESTAGON_SAT_BACKEND
/// or on solver heuristics.

#pragma once

#include "logic/network.hpp"
#include "logic/truth_table.hpp"

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace bestagon::logic
{

/// Per-run accounting for exact_synthesize. Distinguishes gate counts the
/// solver *proved* infeasible from ones it merely gave up on — a decline is
/// a minimality certificate only when no step exhausted its budget.
struct SynthesisStats
{
    unsigned unsat_steps{0};    ///< r values refuted by the solver
    unsigned unknown_steps{0};  ///< r values that hit the conflict budget
    unsigned proofs_checked{0};   ///< refutations certified by the DRAT checker
    unsigned proof_failures{0};   ///< refutations whose proof did NOT check

    /// True iff every attempted gate count was genuinely refuted, so a
    /// std::nullopt result proves no implementation with <= max_gates exists.
    [[nodiscard]] bool decline_is_certified() const noexcept
    {
        return unknown_steps == 0 && proof_failures == 0;
    }
};

/// exact_synthesize's default gate cap and per-call conflict budget; the
/// precomputed NPN database was generated with these.
inline constexpr unsigned default_max_gates = 7;
inline constexpr std::int64_t default_conflict_budget = 50000;

/// Synthesizes a minimal network computing \p f over its variables.
/// Returns std::nullopt if no implementation with at most \p max_gates
/// two-input gates was found within the conflict budget per SAT call.
/// The returned network has f.num_vars() PIs and one PO.
/// With \p certify_unsat, every refuted gate count is DRAT-certified by the
/// independent proof checker (outcomes in \p stats).
[[nodiscard]] std::optional<LogicNetwork> exact_synthesize(const TruthTable& f,
                                                           unsigned max_gates = default_max_gates,
                                                           std::int64_t conflict_budget = default_conflict_budget,
                                                           SynthesisStats* stats = nullptr,
                                                           bool certify_unsat = false);

/// The precomputed exact NPN database (see the file comment). Each database
/// decodes the table entries it serves once and hands out stable pointers.
class NpnDatabase
{
  public:
    /// Returns the exact implementation of \p canonical, which must be the
    /// canonize_npn representative of a 2- to 4-input function; any other
    /// function is not in the table and yields nullptr.
    const LogicNetwork* lookup(const TruthTable& canonical);

    /// Distinct functions looked up so far, served or not.
    [[nodiscard]] std::size_t num_entries() const noexcept { return cache_.size(); }
    /// Distinct functions looked up that the table does not hold.
    [[nodiscard]] std::size_t num_synthesis_failures() const noexcept { return failures_; }

    /// Number of NPN classes in the precomputed table (4 + 14 + 222).
    [[nodiscard]] static std::size_t table_size() noexcept;

  private:
    std::unordered_map<TruthTable, std::optional<LogicNetwork>, TruthTableHash> cache_;
    std::size_t failures_{0};
};

/// Number of two-input gates in a network (inverters/buffers not counted).
[[nodiscard]] std::size_t count_two_input_gates(const LogicNetwork& network);

}  // namespace bestagon::logic
