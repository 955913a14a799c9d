/// \file bench_defects.cpp
/// \brief Throughput of the Monte-Carlo defect yield sweep — the robustness
///        analysis loop of the flow. Sweeps the validated Bestagon OR and
///        NOR gates over seeded defect surfaces at three fab-realistic
///        densities. The sweep checks the defect-free gate once, reuses a
///        verdict on every density step that adds no charged defect and
///        blocks nothing, and simulates the other steps pattern by pattern
///        up to the first wrong pattern (see phys/defect_sweep.hpp).
///
/// Run as:  bench_defects
/// The threads:N rows of one gate share one workload; the yield and the
/// work counters (checks_simulated, checks_reused, patterns_simulated) are
/// identical across thread counts (sample seeds are derived per index, not
/// per worker). The PerSample rows isolate the cost of one full defect-aware
/// operational check against the defect-free baseline.

#include "layout/bestagon_library.hpp"
#include "phys/defect_sweep.hpp"
#include "phys/operational.hpp"

#include <benchmark/benchmark.h>

#include <stdexcept>
#include <string>

namespace
{

using namespace bestagon::phys;

const GateDesign& library_gate(const std::string& name)
{
    for (const auto& impl : bestagon::layout::BestagonLibrary::instance().all())
    {
        if (impl.design.name == name && impl.simulation_validated)
        {
            return impl.design;
        }
    }
    throw std::logic_error{"no validated library gate named " + name};
}

DefectSweepParams sweep_params(unsigned threads)
{
    DefectSweepParams sweep;
    sweep.densities_per_nm2 = {0.002, 0.005, 0.01};
    sweep.samples = 24;
    sweep.seed = 0xbe57a60d;
    sweep.num_threads = threads;
    return sweep;
}

void BM_DefectYieldSweep(benchmark::State& state, const char* gate)
{
    const auto& design = library_gate(gate);
    const auto sweep = sweep_params(static_cast<unsigned>(state.range(0)));
    const SimulationParameters params;  // library calibration point

    DefectSweepResult result;
    for (auto _ : state)
    {
        result = defect_yield_sweep(design, params, sweep);
        benchmark::DoNotOptimize(result);
    }
    // identical across thread counts
    state.counters["yield"] = result.points.back().yield();
    state.counters["checks_simulated"] = static_cast<double>(result.work.checks_simulated);
    state.counters["checks_reused"] = static_cast<double>(result.work.checks_reused);
    state.counters["patterns_simulated"] = static_cast<double>(result.work.patterns_simulated);
    state.counters["samples/s"] = benchmark::Counter(
        static_cast<double>(sweep.samples) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/// One defect-aware operational check on a fixed charged surface — the unit
/// of work the sweep fans out.
void BM_PerSampleCheck(benchmark::State& state)
{
    const auto& design = library_gate("or");
    SimulationParameters params;
    params.num_threads = 1;

    const auto region = sweep_region(design, 5.0);
    DefectSampleParams sample_params;
    sample_params.density_per_nm2 = 0.005;
    // walk the seed stream to a surface that does NOT block an instance
    // site, so the loop measures full simulations rather than the blocked
    // short-circuit
    DefectSurface surface;
    for (std::uint64_t seed = 0xbe57a60d;; ++seed)
    {
        surface = sample_defect_surface(region, sample_params, seed);
        if (!GateInstanceCache{design, params, &surface}.blocked())
        {
            break;
        }
    }

    for (auto _ : state)
    {
        const auto result = check_operational(design, params, surface);
        benchmark::DoNotOptimize(result);
    }
}

/// The defect-free baseline of the same check: the difference is the total
/// cost of the defect path (blocking scan + external-potential rows).
void BM_PerSampleCheckDefectFree(benchmark::State& state)
{
    const auto& design = library_gate("or");
    SimulationParameters params;
    params.num_threads = 1;

    for (auto _ : state)
    {
        const auto result = check_operational(design, params);
        benchmark::DoNotOptimize(result);
    }
}

}  // namespace

BENCHMARK_CAPTURE(BM_DefectYieldSweep, or_gate, "or")
    ->Arg(1)   // serial baseline
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)   // hardware concurrency
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// the tile that dominates the flowbench yield workload
BENCHMARK_CAPTURE(BM_DefectYieldSweep, nor_gate, "nor")
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_PerSampleCheck)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PerSampleCheckDefectFree)->Unit(benchmark::kMillisecond);
