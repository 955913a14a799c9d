/// \file bench_charge_kernel.cpp
/// \brief Microbenchmarks of the charge-state kernel's production paths.
///
/// Three families:
///
///  1. AnnealInstance over synthetic n-site canvases (n in {20, 40, 80}):
///     the production simulated_annealing with one instance on one thread
///     (4000 moves at T0 = 0.5, cooling 0.997, 25% hops, then a greedy
///     quench) on the ChargeState kernel: O(1) cached deltas per proposal,
///     O(n) commits on acceptance only, O(n^2) quench sweeps.
///
///  2. Instantiate on the Bestagon 2-input OR tile: building the per-pattern
///     SiDBSystem from scratch with the evaluating constructor (O(n^2)
///     screened-Coulomb terms, exp per entry) versus assembling it from the
///     pattern-invariant GateInstanceCache (row copies; only driver rows
///     differ between patterns).
///
///  3. CheckOperationalEndToEnd: the production check_operational on the
///     same OR tile with the exhaustive engine — the full 4-pattern
///     verification as used by the gate designer's scoring loop.
///
/// Results are recorded in BENCH_charge_kernel.json at the repository root;
/// its AnnealInstanceNaive rows are history (the pre-kernel code path they
/// timed is gone). CI runs this binary in smoke mode
/// (--benchmark_min_time=0.05) to keep every path exercised.

#include "layout/bestagon_library.hpp"
#include "phys/operational.hpp"
#include "phys/simanneal.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <vector>

namespace
{

using namespace bestagon;
using namespace bestagon::phys;

/// Deterministic pseudo-random canvas of \p n unique sites, spread over a
/// box that grows with n so the charge density stays gate-like.
std::vector<SiDBSite> synthetic_canvas(std::size_t n)
{
    std::mt19937_64 rng{0xca11'ab1e + n};
    const auto span_cols = static_cast<std::int32_t>(8 * std::sqrt(static_cast<double>(n))) + 4;
    const auto span_rows = static_cast<std::int32_t>(4 * std::sqrt(static_cast<double>(n))) + 2;
    std::vector<SiDBSite> sites;
    while (sites.size() < n)
    {
        const SiDBSite s{static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(span_cols)),
                         static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(span_rows)),
                         static_cast<std::int32_t>(rng() & 1)};
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
        {
            sites.push_back(s);
        }
    }
    return sites;
}

void BM_AnnealInstanceKernel(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const SiDBSystem system{synthetic_canvas(n), SimulationParameters{}};
    SimAnnealParameters params;
    params.num_instances = 1;
    params.num_threads = 1;
    for (auto _ : state)
    {
        benchmark::DoNotOptimize(simulated_annealing(system, params));
        ++params.seed;
    }
    state.counters["moves/s"] = benchmark::Counter(
        static_cast<double>(params.steps_per_instance) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

const GateDesign& bestagon_or_design()
{
    static const GateDesign design = [] {
        const auto& lib = layout::BestagonLibrary::instance();
        const auto* gate = lib.lookup(logic::GateType::or2, layout::Port::nw, layout::Port::ne,
                                      layout::Port::se, std::nullopt);
        return gate->design;
    }();
    return design;
}

void BM_InstantiateNaive(benchmark::State& state)
{
    const auto& design = bestagon_or_design();
    const SimulationParameters params{};
    std::uint64_t pattern = 0;
    std::vector<SiDBSite> sites;
    for (auto _ : state)
    {
        design.instance_sites(pattern & 3U, sites);
        const SiDBSystem system{sites, params};
        benchmark::DoNotOptimize(system.potential(0, 1));
        ++pattern;
    }
}

void BM_InstantiateCached(benchmark::State& state)
{
    const auto& design = bestagon_or_design();
    const GateInstanceCache cache{design, SimulationParameters{}};
    std::uint64_t pattern = 0;
    for (auto _ : state)
    {
        const auto system = cache.instantiate(pattern & 3U);
        benchmark::DoNotOptimize(system.potential(0, 1));
        ++pattern;
    }
}

void BM_CheckOperationalEndToEnd(benchmark::State& state)
{
    const auto& design = bestagon_or_design();
    SimulationParameters params;
    params.num_threads = 1;  // isolate single-thread cost from the fan-out
    bool ok = false;
    for (auto _ : state)
    {
        const auto result = check_operational(design, params, Engine::exhaustive);
        ok = result.operational;
        benchmark::DoNotOptimize(result);
    }
    state.counters["operational"] = ok ? 1.0 : 0.0;
    state.counters["sites"] = static_cast<double>(design.instance_sites(0).size());
}

}  // namespace

BENCHMARK(BM_AnnealInstanceKernel)->Arg(20)->Arg(40)->Arg(80)->ArgName("sites")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InstantiateNaive)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_InstantiateCached)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CheckOperationalEndToEnd)->Unit(benchmark::kMillisecond);
