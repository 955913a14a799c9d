#include "phys/defect_sweep.hpp"

#include "core/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bestagon::phys
{

void DefectSweepParams::validate() const
{
    if (densities_per_nm2.empty())
    {
        throw std::invalid_argument{"DefectSweepParams: empty density list"};
    }
    if (samples == 0)
    {
        throw std::invalid_argument{"DefectSweepParams: samples must be positive"};
    }
    double prev = -std::numeric_limits<double>::infinity();
    for (const double d : densities_per_nm2)
    {
        if (!(d >= 0.0) || !std::isfinite(d))
        {
            throw std::invalid_argument{"DefectSweepParams: negative or non-finite density " +
                                        std::to_string(d)};
        }
        if (d <= prev)
        {
            throw std::invalid_argument{
                "DefectSweepParams: densities must be strictly ascending (the survival-curve "
                "coupling walks them in order)"};
        }
        prev = d;
    }
    if (!(margin_nm >= 0.0) || !std::isfinite(margin_nm))
    {
        throw std::invalid_argument{"DefectSweepParams: negative or non-finite margin_nm " +
                                    std::to_string(margin_nm)};
    }
    // the per-defect knobs share the sampler's validation
    DefectSampleParams sample;
    sample.density_per_nm2 = densities_per_nm2.back();
    sample.charged_fraction = charged_fraction;
    sample.charge = charge;
    sample.exclusion_radius_nm = exclusion_radius_nm;
    sample.validate();
}

namespace
{

/// Every site any input pattern can instantiate: the instance sites of
/// pattern 0 (fixed sites, far drivers, perturbers) plus every near driver
/// — the sites GateInstanceCache scans for blocking defects.
std::vector<SiDBSite> footprint_sites(const GateDesign& design)
{
    auto sites = design.instance_sites(0);
    for (const auto& drv : design.drivers)
    {
        sites.push_back(drv.near_site);
    }
    return sites;
}

}  // namespace

DefectRegion sweep_region(const GateDesign& design, double margin_nm)
{
    const auto sites = footprint_sites(design);
    DefectRegion region;
    if (!sites.empty())
    {
        region.n_min = region.n_max = sites.front().n;
        region.m_min = region.m_max = sites.front().m;
    }
    for (const auto& s : sites)
    {
        region.n_min = std::min(region.n_min, s.n);
        region.n_max = std::max(region.n_max, s.n);
        region.m_min = std::min(region.m_min, s.m);
        region.m_max = std::max(region.m_max, s.m);
    }
    const auto dn = static_cast<std::int32_t>(std::ceil(margin_nm / lattice_pitch_x));
    const auto dm = static_cast<std::int32_t>(std::ceil(margin_nm / lattice_pitch_y));
    region.n_min -= dn;
    region.n_max += dn;
    region.m_min -= dm;
    region.m_max += dm;
    return region;
}

namespace
{

/// What every sample of one sweep shares, read-only.
struct SweepContext
{
    const GateDesign& design;
    const SimulationParameters& params;  ///< num_threads = 1: samples run serially
    const DefectSweepParams& sweep;
    const DefectRegion& region;
    std::vector<SiDBSite> footprint;     ///< see footprint_sites
    bool pristine_operational;           ///< verdict of the defect-free gate
    bool reuse_charged_steps;            ///< testkit fault: skip ignores charge
};

/// Verdict of one Monte-Carlo sample across the ascending density walk.
struct SampleOutcome
{
    bool evaluated{false};         ///< false when the run stopped mid-sample
    std::size_t first_failure{0};  ///< density index of the first failure; ==
                                   ///< densities.size() when it never failed
    bool failure_was_blocked{false};
    DefectSweepWork work;
};

enum class StepVerdict : std::uint8_t
{
    operational,
    failed,
    cancelled
};

/// Simulates the patterns of \p cache in pattern order and stops at the
/// first incorrect one. Same verdict as check_operational on the same
/// surface, which simulates every pattern.
StepVerdict simulate_until_wrong(const GateInstanceCache& cache, Engine engine,
                                 const core::RunBudget& run, DefectSweepWork& work)
{
    const std::uint64_t patterns = 1ULL << cache.design().num_inputs();
    for (std::uint64_t p = 0; p < patterns; ++p)
    {
        if (run.stopped())
        {
            return StepVerdict::cancelled;
        }
        const auto pattern = simulate_gate_pattern(cache, p, engine, run);
        ++work.patterns_simulated;
        if (pattern.ground_state.cancelled)
        {
            return StepVerdict::cancelled;
        }
        if (!pattern.correct)
        {
            return StepVerdict::failed;
        }
    }
    return StepVerdict::operational;
}

/// One sample: walk the densities ascending over nested defect prefixes and
/// stop at the first failure (every higher density contains the defect
/// configuration that already failed, so the verdict is decided). Only a
/// step that adds a charged defect is simulated; see defect_sweep.hpp.
SampleOutcome evaluate_sample(const SweepContext& ctx, std::uint64_t sample_seed,
                              const core::RunBudget& run)
{
    const auto& densities = ctx.sweep.densities_per_nm2;
    DefectSampleParams sample_params;
    sample_params.charged_fraction = ctx.sweep.charged_fraction;
    sample_params.charge = ctx.sweep.charge;
    sample_params.exclusion_radius_nm = ctx.sweep.exclusion_radius_nm;

    // one deterministic stream per sample: the surface at density k is the
    // prefix of the full surface at the highest density
    std::vector<std::size_t> counts;
    counts.reserve(densities.size());
    for (const double density : densities)
    {
        counts.push_back(defect_count_for_density(ctx.region, density, sample_seed));
    }
    const DefectSurface full =
        sample_defect_surface(ctx.region, sample_params, sample_seed, counts.back());

    SampleOutcome outcome;
    outcome.first_failure = densities.size();
    // verdict of the last judged Hamiltonian: before the first step, the
    // defect-free gate's
    bool operational = ctx.pristine_operational;
    for (std::size_t k = 0; k < densities.size(); ++k)
    {
        if (run.stopped())
        {
            return outcome;  // evaluated stays false: no verdict for this sample
        }
        const std::size_t first_new = k == 0 ? 0 : counts[k - 1];
        if (k > 0 && counts[k] == first_new)
        {
            continue;  // no new defect: the same surface as the last step
        }
        DefectSurface added;
        for (std::size_t i = first_new; i < counts[k]; ++i)
        {
            added.add(full.defects()[i]);
        }
        // the earlier defects block nothing (or the walk would have
        // stopped), so the step is blocked exactly when a new defect blocks
        if (added.blocks_any(ctx.footprint))
        {
            outcome.first_failure = k;
            outcome.failure_was_blocked = true;
            break;
        }
        if (!added.has_charged() || ctx.reuse_charged_steps)
        {
            ++outcome.work.checks_reused;  // same charged set, same system
        }
        else
        {
            ++outcome.work.checks_simulated;
            const DefectSurface surface = full.prefix(counts[k]);
            const GateInstanceCache cache{ctx.design, ctx.params, &surface};
            const auto verdict = simulate_until_wrong(cache, ctx.sweep.engine, run, outcome.work);
            if (verdict == StepVerdict::cancelled)
            {
                return outcome;
            }
            operational = verdict == StepVerdict::operational;
        }
        if (!operational)
        {
            outcome.first_failure = k;
            break;
        }
    }
    outcome.evaluated = true;
    return outcome;
}

DefectSweepResult run_sweep(const GateDesign& design, const SimulationParameters& params,
                            const DefectSweepParams& sweep, const core::RunBudget& run,
                            bool reuse_charged_steps)
{
    sweep.validate();
    validate_parameters(params);
    if (design.num_inputs() > max_gate_inputs)
    {
        throw std::invalid_argument{"defect_yield_sweep: gate '" + design.name + "' has " +
                                    std::to_string(design.num_inputs()) +
                                    " inputs; the pattern enumeration supports at most " +
                                    std::to_string(max_gate_inputs)};
    }

    DefectSweepResult result;
    result.gate_name = design.name;
    result.region = sweep_region(design, sweep.margin_nm);
    result.points.resize(sweep.densities_per_nm2.size());
    for (std::size_t k = 0; k < result.points.size(); ++k)
    {
        result.points[k].density_per_nm2 = sweep.densities_per_nm2[k];
    }

    // the defect-free verdict, once per sweep, patterns fanned out
    SimulationParameters fanned = params;
    fanned.num_threads = sweep.num_threads;
    const auto pristine = check_operational(design, fanned, sweep.engine, run);
    result.work.checks_simulated = 1;
    for (const auto& pattern : pristine.details)
    {
        result.work.patterns_simulated += pattern.evaluated ? 1 : 0;
    }
    if (pristine.cancelled)
    {
        result.cancelled = true;
        return result;
    }

    // the parallelism budget is now spent across samples; each sample's
    // steps run serially so the fan-out is index-addressed and bit-identical
    // for any thread count
    SimulationParameters serial = params;
    serial.num_threads = 1;
    const SweepContext ctx{design,         serial, sweep, result.region, footprint_sites(design),
                           pristine.operational, reuse_charged_steps};

    std::vector<SampleOutcome> outcomes(sweep.samples);
    core::parallel_for(sweep.num_threads, sweep.samples, run, [&](std::size_t s) {
        outcomes[s] = evaluate_sample(ctx, core::derive_seed(sweep.seed, s), run);
    });
    result.cancelled = run.stopped();

    // serial reduction in sample order: survival accounting per density
    for (const auto& outcome : outcomes)
    {
        result.work.checks_simulated += outcome.work.checks_simulated;
        result.work.checks_reused += outcome.work.checks_reused;
        result.work.patterns_simulated += outcome.work.patterns_simulated;
        if (!outcome.evaluated)
        {
            continue;
        }
        for (std::size_t k = 0; k < result.points.size(); ++k)
        {
            auto& point = result.points[k];
            ++point.samples_evaluated;
            if (outcome.first_failure > k)
            {
                ++point.operational;
            }
            else if (outcome.failure_was_blocked)
            {
                ++point.blocked;
            }
        }
    }
    return result;
}

}  // namespace

DefectSweepResult defect_yield_sweep(const GateDesign& design, const SimulationParameters& params,
                                     const DefectSweepParams& sweep, const core::RunBudget& run)
{
    return run_sweep(design, params, sweep, run, false);
}

DefectSweepResult testkit_defect_yield_sweep_reusing_charged_steps(
    const GateDesign& design, const SimulationParameters& params, const DefectSweepParams& sweep,
    const core::RunBudget& run)
{
    return run_sweep(design, params, sweep, run, true);
}

std::string to_json(const DefectSweepResult& result)
{
    std::ostringstream out;
    out.precision(12);
    out << "{\n";
    out << "  \"gate\": \"" << result.gate_name << "\",\n";
    out << "  \"cancelled\": " << (result.cancelled ? "true" : "false") << ",\n";
    out << "  \"region\": {\"n_min\": " << result.region.n_min
        << ", \"n_max\": " << result.region.n_max << ", \"m_min\": " << result.region.m_min
        << ", \"m_max\": " << result.region.m_max
        << ", \"area_nm2\": " << result.region.area_nm2() << "},\n";
    out << "  \"work\": {\"checks_simulated\": " << result.work.checks_simulated
        << ", \"checks_reused\": " << result.work.checks_reused
        << ", \"patterns_simulated\": " << result.work.patterns_simulated << "},\n";
    out << "  \"points\": [\n";
    for (std::size_t k = 0; k < result.points.size(); ++k)
    {
        const auto& p = result.points[k];
        out << "    {\"density_per_nm2\": " << p.density_per_nm2
            << ", \"samples\": " << p.samples_evaluated << ", \"operational\": " << p.operational
            << ", \"blocked\": " << p.blocked << ", \"yield\": " << p.yield() << "}"
            << (k + 1 < result.points.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

}  // namespace bestagon::phys
