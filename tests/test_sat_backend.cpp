/// \file test_sat_backend.cpp
/// \brief Tests for the pluggable solver backends: environment-based
///        selection and the IPASIR facade loading the repository's own
///        solver as a shared library (a self-test of both sides of the C
///        interface).

#include "sat/backend.hpp"
#include "sat/ipasir_backend.hpp"
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace
{

using namespace bestagon;
using sat::BackendKind;
using sat::Lit;
using sat::neg;
using sat::pos;
using sat::Var;

[[nodiscard]] std::int64_t now_ms()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(steady_clock::now().time_since_epoch()).count();
}

/// Pigeonhole principle PHP(pigeons, holes): UNSAT when pigeons > holes and
/// exponentially hard for resolution — the standard budget-latch workload.
void add_php(sat::SatBackend& solver, int pigeons, int holes)
{
    const auto var = [&](int p, int h) { return Var{p * holes + h}; };
    while (solver.num_vars() < pigeons * holes)
    {
        solver.new_var();
    }
    for (int p = 0; p < pigeons; ++p)
    {
        std::vector<Lit> somewhere;
        for (int h = 0; h < holes; ++h)
        {
            somewhere.push_back(pos(var(p, h)));
        }
        solver.add_clause(std::move(somewhere));
    }
    for (int h = 0; h < holes; ++h)
    {
        for (int p = 0; p < pigeons; ++p)
        {
            for (int q = p + 1; q < pigeons; ++q)
            {
                solver.add_clause(neg(var(p, h)), neg(var(q, h)));
            }
        }
    }
}

/// RAII guard scoping an environment variable to one test.
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_{name}
    {
        const char* old = std::getenv(name);
        had_old_ = old != nullptr;
        old_ = had_old_ ? old : "";
        if (value != nullptr)
        {
            ::setenv(name, value, 1);
        }
        else
        {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv()
    {
        if (had_old_)
        {
            ::setenv(name_.c_str(), old_.c_str(), 1);
        }
        else
        {
            ::unsetenv(name_.c_str());
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;
    ScopedEnv(ScopedEnv&&) = delete;
    ScopedEnv& operator=(ScopedEnv&&) = delete;

  private:
    std::string name_;
    std::string old_;
    bool had_old_{false};
};

TEST(SatBackend, EnvSelectionParsesAllForms)
{
    {
        const ScopedEnv env{"BESTAGON_SAT_BACKEND", nullptr};
        sat::BackendSelection fallback;
        fallback.kind = BackendKind::internal;
        EXPECT_EQ(sat::backend_selection_from_env(fallback).kind, BackendKind::internal);
    }
    {
        const ScopedEnv env{"BESTAGON_SAT_BACKEND", "internal"};
        EXPECT_EQ(sat::backend_selection_from_env({}).kind, BackendKind::internal);
    }
    {
        const ScopedEnv env{"BESTAGON_SAT_BACKEND", "ipasir:/some/lib.so"};
        const auto selection = sat::backend_selection_from_env({});
        EXPECT_EQ(selection.kind, BackendKind::ipasir);
        EXPECT_EQ(selection.ipasir_library, "/some/lib.so");
    }
    {
        // an unknown value must not silently select some other solver
        const ScopedEnv env{"BESTAGON_SAT_BACKEND", "bogus"};
        try
        {
            static_cast<void>(sat::backend_selection_from_env({}));
            ADD_FAILURE() << "unknown BESTAGON_SAT_BACKEND value was accepted";
        }
        catch (const std::invalid_argument& e)
        {
            const std::string what = e.what();
            EXPECT_NE(what.find("bogus"), std::string::npos) << what;
            EXPECT_NE(what.find("\"internal\""), std::string::npos) << what;
            EXPECT_NE(what.find("\"ipasir:<path>\""), std::string::npos) << what;
        }
    }
}

TEST(SatBackend, FactoryResolvesDefaultKind)
{
    const ScopedEnv env{"BESTAGON_SAT_BACKEND", nullptr};
    // an automatic selection with no env override is the in-tree solver, the
    // same backend an explicit internal selection builds
    for (const auto kind : {BackendKind::automatic, BackendKind::internal})
    {
        const auto backend = sat::make_sat_backend({.kind = kind});
        EXPECT_NE(dynamic_cast<const sat::Solver*>(backend.get()), nullptr);
        const Var a = backend->new_var();
        const Var b = backend->new_var();
        backend->add_clause(pos(a), pos(b));
        backend->add_clause(neg(a));
        ASSERT_EQ(backend->solve(), sat::Result::satisfiable);
        EXPECT_FALSE(backend->model_value(a));
        EXPECT_TRUE(backend->model_value(b));
    }
}

TEST(SatBackend, IpasirFacadeSelfTest)
{
    // BESTAGON_IPASIR_LIB points at our own solver built as a shared object;
    // loading it through the dlopen facade exercises both halves of the
    // IPASIR surface with no external dependency
    sat::IpasirBackend backend{BESTAGON_IPASIR_LIB};
    EXPECT_EQ(backend.signature(), "bestagon-cdcl");

    const Var a = backend.new_var();
    const Var b = backend.new_var();
    const Var c = backend.new_var();
    backend.add_clause(pos(a), pos(b));
    backend.add_clause(neg(a), pos(c));

    ASSERT_EQ(backend.solve(), sat::Result::satisfiable);
    // the model must satisfy the clauses through the DIMACS literal mapping
    const bool va = backend.model_value(a);
    const bool vb = backend.model_value(b);
    const bool vc = backend.model_value(c);
    EXPECT_TRUE(va || vb);
    EXPECT_TRUE(!va || vc);

    // assumption-based UNSAT with a failed-assumption core
    ASSERT_EQ(backend.solve({neg(a), neg(b)}), sat::Result::unsatisfiable);
    const auto& core = backend.final_conflict();
    EXPECT_FALSE(core.empty());
    for (const auto l : core)
    {
        EXPECT_TRUE(l == neg(a) || l == neg(b));
    }

    // the instance stays usable incrementally after an UNSAT-under-assumptions
    ASSERT_EQ(backend.solve(), sat::Result::satisfiable);
}

TEST(SatBackend, IpasirFacadeHonorsTimeBudgetViaTerminate)
{
    sat::IpasirBackend backend{BESTAGON_IPASIR_LIB};
    add_php(backend, 12, 11);
    backend.set_time_budget_ms(10);

    const auto start = now_ms();
    const auto result = backend.solve();
    const auto wall = now_ms() - start;
    EXPECT_EQ(result, sat::Result::unknown);
    EXPECT_LT(wall, 2000) << "ipasir_set_terminate did not stop the search";
}

TEST(SatBackend, MakeBackendBuildsIpasirFromSelection)
{
    sat::BackendSelection selection;
    selection.kind = BackendKind::ipasir;
    selection.ipasir_library = BESTAGON_IPASIR_LIB;
    const auto backend = sat::make_sat_backend(selection);
    const Var a = backend->new_var();
    backend->add_clause(pos(a));
    ASSERT_EQ(backend->solve(), sat::Result::satisfiable);
    EXPECT_TRUE(backend->model_value(a));
    EXPECT_FALSE(backend->supports_proof_tracing());
}

TEST(SatBackend, MissingIpasirLibraryThrows)
{
    EXPECT_THROW(sat::IpasirBackend{"/nonexistent/solver.so"}, std::runtime_error);
}

}  // namespace
