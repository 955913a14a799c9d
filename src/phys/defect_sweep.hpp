/// \file defect_sweep.hpp
/// \brief Monte-Carlo robustness sweep: gate yield under randomly sampled
///        fabrication defects.
///
/// For each defect density, N seeded defect surfaces are sampled around the
/// gate's footprint and the gate is checked operational on each. Samples
/// are COUPLED across densities: sample s draws one deterministic defect
/// stream and density k uses its first count_k defects (see
/// sample_defect_surface), so a defect present at a low density is still
/// present at every higher one. A sample therefore counts as operational at
/// density k only if it is operational at every density <= k — the yield
/// curve is a survival curve and monotonically non-increasing in density by
/// construction, and each sample stops at its first failure.
///
/// A sample simulates only the density steps whose Hamiltonian it has not
/// judged yet. Call the defects a step adds over the previous step (all of
/// them at the first step) its *new* defects:
///  - **Blocked.** A new defect that blocks a site some pattern can
///    instantiate (a fixed site, either driver position, a perturber) fails
///    the step as blocked; nothing is simulated.
///  - **Reused.** New defects that are all structural and block nothing
///    leave the system bit-identical: the external potential sums only
///    charged defects, in insertion order. The step takes the verdict of the
///    previous step (operational, or the walk would have stopped) or, at
///    the first step, the verdict of the defect-free gate. That pristine
///    verdict is computed once per sweep, with its patterns fanned out over
///    num_threads.
///  - **Simulated.** A step with a new charged defect is simulated pattern
///    by pattern, in pattern order, and stops at the first incorrect
///    pattern: the sweep needs the verdict, not the pattern count.
/// Every verdict equals that of a full defect-aware check_operational on the
/// step's surface, so yield counts are those of simulating every step.
///
/// Samples fan out on the thread pool with per-sample derived seeds, so the
/// curve and the work counters are bit-identical for any thread count.

#pragma once

#include "core/run_control.hpp"
#include "phys/defect.hpp"
#include "phys/ground_state.hpp"
#include "phys/operational.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace bestagon::phys
{

/// Parameters of a Monte-Carlo defect yield sweep.
struct DefectSweepParams
{
    /// Defect densities to evaluate, in defects/nm^2, strictly ascending.
    /// Experimental H-Si(100) surfaces show roughly 0.001-0.1 defects/nm^2
    /// depending on preparation quality.
    std::vector<double> densities_per_nm2{0.001, 0.002, 0.005, 0.01, 0.02};

    unsigned samples{100};          ///< Monte-Carlo samples per density
    std::uint64_t seed{0xbe57a60d}; ///< base seed; sample s uses derive_seed(seed, s)

    double charged_fraction{0.5};   ///< fraction of charged (vs structural) defects
    double charge{-1.0};            ///< charge of charged defects, units of e
    double exclusion_radius_nm{0.8}; ///< exclusion radius of structural defects

    /// Sampling region margin around the gate's site bounding box, in nm.
    /// Defects farther out are screened to irrelevance (lambda_TF ~ 5 nm).
    double margin_nm{5.0};

    /// Worker threads: 0 = hardware concurrency, 1 = serial. The pristine
    /// check fans its patterns out over them; after it, the parallelism
    /// budget is spent on samples, and each sample walks its densities and
    /// patterns serially (its early exit depends on the pattern order). So
    /// results and work counters are identical for any value.
    unsigned num_threads{0};

    Engine engine{Engine::automatic}; ///< ground-state engine per pattern

    /// Throws std::invalid_argument on negative/non-finite densities, a
    /// non-ascending density list, charged_fraction outside [0, 1],
    /// non-finite charge, or a negative exclusion radius / margin.
    void validate() const;
};

/// Yield at one defect density.
struct YieldPoint
{
    double density_per_nm2{0.0};
    unsigned samples_evaluated{0};  ///< samples with a verdict at this density
    unsigned operational{0};        ///< samples operational at ALL densities <= this
    unsigned blocked{0};            ///< failed samples whose first failure was a blocked site

    /// Fraction of evaluated samples that survived (0 when none evaluated).
    [[nodiscard]] double yield() const
    {
        return samples_evaluated == 0
                   ? 0.0
                   : static_cast<double>(operational) / static_cast<double>(samples_evaluated);
    }
};

/// Deterministic work counters of a sweep: identical for any thread count
/// under an unlimited budget. A sample's density steps with new defects are
/// each simulated, reused or blocked; blocked steps are in neither counter
/// (each ends its sample, see YieldPoint::blocked).
struct DefectSweepWork
{
    std::uint64_t checks_simulated{0};    ///< pristine check + simulated steps
    std::uint64_t checks_reused{0};       ///< steps judged by an earlier verdict
    std::uint64_t patterns_simulated{0};  ///< ground-state searches run
};

/// Result of a defect yield sweep over one gate design.
struct DefectSweepResult
{
    std::string gate_name;
    DefectRegion region;            ///< the sampled surface region
    std::vector<YieldPoint> points; ///< one per density, in input order
    DefectSweepWork work;           ///< includes work of samples cut mid-walk
    bool cancelled{false};          ///< the sweep was cut by the run budget;
                                    ///< unevaluated samples are excluded from
                                    ///< every point's samples_evaluated; a cut
                                    ///< pristine check evaluates no sample
};

/// The defect sampling region of \p design: the bounding box of every site
/// any input pattern can instantiate, expanded by \p margin_nm.
[[nodiscard]] DefectRegion sweep_region(const GateDesign& design, double margin_nm);

/// Runs the Monte-Carlo yield sweep of \p design under \p params physics.
/// Bit-identical for any sweep.num_threads. Throws std::invalid_argument on
/// invalid sweep parameters (see DefectSweepParams::validate) and on designs
/// exceeding max_gate_inputs.
[[nodiscard]] DefectSweepResult defect_yield_sweep(const GateDesign& design,
                                                   const SimulationParameters& params,
                                                   const DefectSweepParams& sweep,
                                                   const core::RunBudget& run = {});

/// **Testkit-only fault hook**: the same sweep, but a step reuses the
/// previous verdict even when it adds a charged defect (only blocking still
/// forces a fresh verdict). The `reuse_across_charged_step` mutant; the
/// defect differential oracle proves the fault is detected. Production code
/// must never call this.
[[nodiscard]] DefectSweepResult testkit_defect_yield_sweep_reusing_charged_steps(
    const GateDesign& design, const SimulationParameters& params, const DefectSweepParams& sweep,
    const core::RunBudget& run = {});

/// Serializes \p result as a pretty-printed JSON object (the yield-curve
/// artifact published by tools/defect_sweep and the CI bench smoke step).
[[nodiscard]] std::string to_json(const DefectSweepResult& result);

}  // namespace bestagon::phys
