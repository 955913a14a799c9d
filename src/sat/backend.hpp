/// \file backend.hpp
/// \brief Pluggable SAT backends: the abstract solver interface and backend
///        selection.
///
/// Every SAT consumer in the code base (exact physical design, exact
/// synthesis, equivalence checking, the encodings library, the differential
/// oracles) programs against SatBackend instead of a concrete solver class.
/// Two implementations exist:
///
///   * sat::Solver (solver.hpp) — the in-tree CDCL solver;
///   * sat::IpasirBackend (ipasir_backend.hpp) — any IPASIR-conforming
///     shared library loaded at runtime.
///
/// Selection is programmatic (BackendSelection) or via the environment
/// variable BESTAGON_SAT_BACKEND ("internal" or
/// "ipasir:/path/to/libsolver.so"); see make_sat_backend().

#pragma once

#include "core/run_control.hpp"
#include "sat/sat_types.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bestagon::sat
{

class ProofTracer;

/// Abstract incremental SAT solver. Mirrors the surface the code base relies
/// on: variables, clauses, assumption solving with unsat cores, resource
/// budgets/cancellation, and (where supported) DRAT proof tracing.
class SatBackend
{
  public:
    SatBackend() = default;
    SatBackend(const SatBackend&) = default;
    SatBackend(SatBackend&&) = default;
    SatBackend& operator=(const SatBackend&) = default;
    SatBackend& operator=(SatBackend&&) = default;
    virtual ~SatBackend() = default;

    /// Creates a fresh variable and returns it.
    virtual Var new_var() = 0;

    /// Number of variables created so far.
    [[nodiscard]] virtual int num_vars() const = 0;

    /// Adds a clause. Returns false if the clause makes the instance
    /// trivially unsatisfiable (implementations may also defer detection to
    /// solve(), in which case they return true here).
    virtual bool add_clause(std::vector<Lit> lits) = 0;

    /// Convenience overloads (hidden by the override in derived classes —
    /// re-expose with `using SatBackend::add_clause;`).
    bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
    bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
    bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

    /// Solves the current formula under the given assumptions.
    virtual Result solve(const std::vector<Lit>& assumptions) = 0;
    Result solve() { return solve(std::vector<Lit>{}); }

    /// Model value of variable \p v after a satisfiable result.
    [[nodiscard]] virtual bool model_value(Var v) const = 0;

    /// Model value of a literal after a satisfiable result.
    [[nodiscard]] bool model_value(Lit l) const { return model_value(l.var()) != l.sign(); }

    /// After solve() returned unsatisfiable: the subset of the assumptions
    /// the refutation depends on. Empty when the formula itself is
    /// unsatisfiable regardless of the assumptions.
    [[nodiscard]] virtual const std::vector<Lit>& final_conflict() const = 0;

    /// Snapshot of the formula suitable for independent proof checking:
    /// every returned clause is a logical consequence of the clauses passed
    /// to add_clause(), and a DRAT refutation checked against the snapshot
    /// certifies the original formula unsatisfiable.
    [[nodiscard]] virtual std::vector<std::vector<Lit>> root_clauses() const = 0;

    [[nodiscard]] virtual const SolverStats& stats() const = 0;

    // -- resource control (no-ops where a backend cannot honor them) --------

    /// Limits the number of conflicts for the next solve() (< 0 disables).
    virtual void set_conflict_budget(std::int64_t budget) = 0;

    /// Wall-clock budget in milliseconds for the next solve() (< 0 disables).
    virtual void set_time_budget_ms(std::int64_t ms) = 0;

    /// Cooperative cancellation; polled alongside the budgets.
    virtual void set_stop_token(core::StopToken token) = 0;

    /// Absolute steady-clock deadline; composes with the relative budget.
    virtual void set_deadline(core::Deadline deadline) = 0;

    /// Number of budget checks between wall-clock polls (see Solver).
    virtual void set_time_check_stride(std::int64_t stride) = 0;

    /// Applies a composed RunBudget: installs its stop token and deadline in
    /// one call. Callers layering a per-solve relative budget on top combine
    /// it via RunBudget::clipped_ms() before passing the budget here.
    void set_run_budget(const core::RunBudget& run)
    {
        set_stop_token(run.token);
        set_deadline(run.deadline);
    }

    // -- proofs --------------------------------------------------------------

    /// Whether this backend can stream a DRAT proof. Consumers must skip
    /// certification (not fail) when a backend cannot trace.
    [[nodiscard]] virtual bool supports_proof_tracing() const { return false; }

    /// Attaches (or detaches, with nullptr) a DRAT proof tracer. No-op on
    /// backends without proof support.
    virtual void set_proof_tracer(ProofTracer* tracer) { static_cast<void>(tracer); }
};

/// Which concrete backend to construct.
enum class BackendKind : std::uint8_t
{
    automatic,  ///< environment override, else the in-tree solver
    internal,   ///< the in-tree CDCL solver
    ipasir      ///< external IPASIR shared library
};

struct BackendSelection
{
    BackendKind kind{BackendKind::automatic};
    /// Shared-library path for BackendKind::ipasir.
    std::string ipasir_library{};
};

/// Reads BESTAGON_SAT_BACKEND. Accepted values: "internal" and
/// "ipasir:<path>". Unset returns \p fallback; any other value throws
/// std::invalid_argument naming the accepted values, so a mistyped or
/// retired selection never silently runs a different solver.
[[nodiscard]] BackendSelection backend_selection_from_env(BackendSelection fallback = {});

/// Constructs a backend. BackendKind::automatic resolves to the environment
/// selection if BESTAGON_SAT_BACKEND is set, else to the in-tree solver.
/// Throws std::invalid_argument on an unknown BESTAGON_SAT_BACKEND value and
/// std::runtime_error when an IPASIR library cannot be loaded.
[[nodiscard]] std::unique_ptr<SatBackend> make_sat_backend(const BackendSelection& selection = {});

}  // namespace bestagon::sat
