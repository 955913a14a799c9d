/// \file defect_sweep.cpp
/// \brief Monte-Carlo defect yield sweep over Bestagon library tiles.
///
/// Usage: defect_sweep [gate] [samples] [seed] [threads] [out.json]
///   gate:    a library design name (e.g. "or", "and", "wire") or "all"
///            (default) for every simulation-validated implementation
///   samples: Monte-Carlo samples per density (default 100)
///   seed:    base seed; sample s derives its own stream (default 0xbe57a60d)
///   threads: 0 = hardware concurrency (default), 1 = serial
///   out.json: output path (default "defect_yield.json"); with multiple
///             gates the file holds a JSON array of per-gate yield curves
///
/// For each gate the tool samples seeded defect surfaces (charged +
/// structural, fab-realistic densities) around the tile footprint and
/// reports the per-density yield: the fraction of surfaces on which the
/// gate remains operational at the library calibration point (mu = -0.32
/// eV, eps_r = 5.6, lambda_TF = 5 nm), and the sweep's work: checks
/// simulated, checks reused from an earlier verdict, patterns simulated.
/// The curves are survival curves — monotonically non-increasing in the
/// density — and, like the work counts, bit-identical for any thread count.

#include "layout/bestagon_library.hpp"
#include "phys/defect_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace bestagon;

int main(int argc, char** argv)
{
    const std::string gate_arg = argc > 1 ? argv[1] : "all";
    phys::DefectSweepParams sweep;
    sweep.samples = argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 0)) : 100U;
    if (argc > 3)
    {
        sweep.seed = std::strtoull(argv[3], nullptr, 0);
    }
    sweep.num_threads = argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 0)) : 0U;
    const std::string out_path = argc > 5 ? argv[5] : "defect_yield.json";

    // one sweep per distinct design name (the library holds one entry per
    // port orientation; mirrored variants have statistically identical yield)
    std::vector<const phys::GateDesign*> designs;
    std::vector<std::string> seen;
    for (const auto& impl : layout::BestagonLibrary::instance().all())
    {
        if (!impl.simulation_validated)
        {
            continue;
        }
        if (gate_arg != "all" && impl.design.name != gate_arg)
        {
            continue;
        }
        if (std::find(seen.begin(), seen.end(), impl.design.name) != seen.end())
        {
            continue;
        }
        seen.push_back(impl.design.name);
        designs.push_back(&impl.design);
    }
    if (designs.empty())
    {
        std::fprintf(stderr, "defect_sweep: no validated library design named '%s'\n",
                     gate_arg.c_str());
        return 1;
    }

    const phys::SimulationParameters params;  // library calibration point
    std::string json = designs.size() > 1 ? "[\n" : "";
    for (std::size_t g = 0; g < designs.size(); ++g)
    {
        const auto& design = *designs[g];
        std::printf("sweeping '%s' (%zu sites, %u inputs, %u samples x %zu densities)...\n",
                    design.name.c_str(), design.sites.size(), design.num_inputs(), sweep.samples,
                    sweep.densities_per_nm2.size());
        const auto result = phys::defect_yield_sweep(design, params, sweep);
        for (const auto& p : result.points)
        {
            std::printf("  density %.4f /nm^2: yield %5.1f%%  (%u/%u operational, %u blocked)\n",
                        p.density_per_nm2, 100.0 * p.yield(), p.operational, p.samples_evaluated,
                        p.blocked);
        }
        std::printf("  work: %llu checks simulated, %llu reused, %llu patterns simulated\n",
                    static_cast<unsigned long long>(result.work.checks_simulated),
                    static_cast<unsigned long long>(result.work.checks_reused),
                    static_cast<unsigned long long>(result.work.patterns_simulated));
        json += phys::to_json(result);
        if (designs.size() > 1 && g + 1 < designs.size())
        {
            json += ",\n";
        }
    }
    if (designs.size() > 1)
    {
        json += "]\n";
    }

    std::ofstream out{out_path};
    if (!out)
    {
        std::fprintf(stderr, "defect_sweep: cannot write '%s'\n", out_path.c_str());
        return 1;
    }
    out << json;
    std::printf("yield curves written to %s\n", out_path.c_str());
    return 0;
}
