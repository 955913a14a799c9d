#include "testing/random.hpp"

#include "layout/scalable_physical_design.hpp"
#include "logic/tech_mapping.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

namespace bestagon::testkit
{

std::uint64_t Rng::next()
{
    // splitmix64 (Steele, Lea, Flood): guaranteed full period of 2^64.
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound)
{
    // Lemire-style rejection-free multiply-shift is overkill here; plain
    // modulo bias is negligible for the small bounds the generators use,
    // but reject the worst case anyway to keep distributions exact.
    const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                                std::numeric_limits<std::uint64_t>::max() % bound;
    std::uint64_t v = next();
    while (v >= limit)
    {
        v = next();
    }
    return v % bound;
}

unsigned Rng::range(unsigned lo, unsigned hi)
{
    return lo + static_cast<unsigned>(below(static_cast<std::uint64_t>(hi) - lo + 1));
}

bool Rng::chance(double p)
{
    return real() < p;
}

double Rng::real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

sat::Cnf random_cnf(Rng& rng, const CnfOptions& options)
{
    sat::Cnf cnf;
    cnf.num_vars = static_cast<int>(rng.range(options.min_vars, options.max_vars));
    const double ratio =
        options.clause_ratio_min + rng.real() * (options.clause_ratio_max - options.clause_ratio_min);
    const auto num_clauses =
        std::max<unsigned>(1, static_cast<unsigned>(ratio * static_cast<double>(cnf.num_vars)));
    for (unsigned c = 0; c < num_clauses; ++c)
    {
        const unsigned len = rng.range(1, std::min<unsigned>(options.max_clause_len,
                                                             static_cast<unsigned>(cnf.num_vars)));
        std::vector<int> clause;
        std::set<int> used_vars;
        while (clause.size() < len)
        {
            const int var = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(cnf.num_vars)));
            if (!used_vars.insert(var).second)
            {
                continue;  // no duplicate/contradictory literal within a clause
            }
            clause.push_back(rng.chance(0.5) ? var : -var);
        }
        cnf.clauses.push_back(std::move(clause));
    }
    return cnf;
}

logic::TruthTable random_truth_table(Rng& rng, unsigned num_vars)
{
    logic::TruthTable tt{num_vars};
    for (std::uint64_t bit = 0; bit < tt.num_bits(); ++bit)
    {
        tt.set_bit(bit, rng.chance(0.5));
    }
    return tt;
}

logic::LogicNetwork random_network(Rng& rng, const XagOptions& options)
{
    logic::LogicNetwork net;
    std::vector<logic::LogicNetwork::NodeId> signals;
    std::vector<unsigned> uses;  // consumers per entry of `signals`
    const unsigned num_pis = rng.range(options.min_pis, options.max_pis);
    for (unsigned i = 0; i < num_pis; ++i)
    {
        signals.push_back(net.create_pi("x" + std::to_string(i)));
        uses.push_back(0);
    }
    const auto consume = [&](std::size_t index) { ++uses[index]; return signals[index]; };
    const unsigned num_gates = rng.range(options.min_gates, options.max_gates);
    for (unsigned g = 0; g < num_gates; ++g)
    {
        const auto ia = rng.below(signals.size());
        auto ib = rng.below(signals.size());
        // gate(a, a) strashes to a wire or a constant during mapping —
        // resample so binary gates contribute actual logic (a buffered copy
        // of `a` may still be drawn; the oracles tolerate the residual folds)
        while (ib == ia && signals.size() > 1)
        {
            ib = rng.below(signals.size());
        }
        const unsigned kind = rng.range(0, options.xag_gates_only ? 3 : 7);
        logic::LogicNetwork::NodeId out;
        switch (kind)
        {
            case 0: out = net.create_and(consume(ia), consume(ib)); break;
            case 1: out = net.create_xor(consume(ia), consume(ib)); break;
            case 2: out = net.create_not(consume(ia)); break;
            case 3: out = net.create_buf(consume(ia)); break;
            case 4: out = net.create_or(consume(ia), consume(ib)); break;
            case 5: out = net.create_nand(consume(ia), consume(ib)); break;
            case 6: out = net.create_nor(consume(ia), consume(ib)); break;
            default: out = net.create_xnor(consume(ia), consume(ib)); break;
        }
        signals.push_back(out);
        uses.push_back(0);
    }
    // every signal must reach an output: both P&R engines (and any real
    // specification) require fully observed logic — dangling cones would make
    // the constructive march fail structurally. Reduce unconsumed signals
    // pairwise until at most max_pos remain, then observe each through a PO.
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < signals.size(); ++i)
    {
        if (uses[i] == 0)
        {
            open.push_back(i);
        }
    }
    while (open.size() > options.max_pos)
    {
        const auto ia = open.back();
        open.pop_back();
        const auto ib = open.back();
        open.pop_back();
        const auto out = rng.chance(0.5) ? net.create_and(consume(ia), consume(ib))
                                         : net.create_xor(consume(ia), consume(ib));
        signals.push_back(out);
        uses.push_back(0);
        open.push_back(signals.size() - 1);
    }
    unsigned po = 0;
    for (const auto index : open)
    {
        net.create_po(consume(index), "f" + std::to_string(po++));
    }
    return net;
}

logic::LogicNetwork random_mapped_network(Rng& rng, const XagOptions& options)
{
    return logic::map_to_bestagon(random_network(rng, options));
}

std::optional<layout::GateLevelLayout> random_gate_layout(Rng& rng, const XagOptions& options)
{
    return layout::scalable_physical_design(random_mapped_network(rng, options));
}

std::vector<phys::SiDBSite> random_sidb_canvas(Rng& rng, const CanvasOptions& options)
{
    const unsigned num_dots = rng.range(options.min_dots, options.max_dots);
    std::set<phys::SiDBSite> sites;
    while (sites.size() < num_dots)
    {
        sites.insert(phys::SiDBSite{
            static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(options.max_column) + 1)),
            static_cast<std::int32_t>(
                rng.below(static_cast<std::uint64_t>(options.max_dimer_row) + 1)),
            static_cast<std::int32_t>(rng.below(2))});
    }
    return {sites.begin(), sites.end()};
}

std::optional<CalibratedCanvas> near_threshold_canvas(Rng& rng, const CanvasOptions& options)
{
    auto canvas = random_sidb_canvas(rng, options);
    const std::size_t n = canvas.size();
    constexpr double target = -1e-13;  // the level to reach, in eV (see the header)
    constexpr double max_shift = 0.1;  // eV from the default mu_minus
    phys::SimulationParameters params;
    const double start_mu = params.mu_minus;
    for (unsigned round = 0; round < 16; ++round)
    {
        // brute-force ground state under the current mu_minus
        const phys::SiDBSystem system{canvas, params};
        phys::ChargeConfig best;
        double best_f = std::numeric_limits<double>::infinity();
        for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits)
        {
            phys::ChargeConfig config(n, 0);
            for (std::size_t s = 0; s < n; ++s)
            {
                config[s] = static_cast<std::uint8_t>((bits >> s) & 1ULL);
            }
            if (system.physically_valid(config))
            {
                if (const double f = system.grand_potential(config); f < best_f)
                {
                    best_f = f;
                    best = std::move(config);
                }
            }
        }
        // its highest charged level; shifting mu_minus moves every level alike
        double top = -std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < n; ++s)
        {
            if (!best.empty() && best[s] != 0)
            {
                top = std::max(top, params.mu_minus + system.local_potential(best, s));
            }
        }
        if (top == -std::numeric_limits<double>::infinity())
        {
            return std::nullopt;
        }
        if (std::abs(top - target) < 1e-12)
        {
            return CalibratedCanvas{std::move(canvas), params};
        }
        params.mu_minus += target - top;
        if (std::abs(params.mu_minus - start_mu) > max_shift)
        {
            return std::nullopt;
        }
    }
    return std::nullopt;
}

}  // namespace bestagon::testkit
