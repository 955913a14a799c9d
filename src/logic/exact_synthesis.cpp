#include "logic/exact_synthesis.hpp"

#include "sat/dimacs.hpp"
#include "sat/encodings.hpp"
#include "sat/proof.hpp"
#include "sat/proof_check.hpp"
#include "sat/backend.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <span>
#include <vector>

namespace bestagon::logic
{

namespace
{

using sat::Lit;
using sat::Result;
using sat::SatBackend;
using sat::neg;
using sat::pos;

/// One synthesis attempt with exactly \p r two-input steps. \p verdict
/// reports the solver outcome so callers can tell a refuted gate count
/// (minimality evidence) from a budget-exhausted one.
std::optional<LogicNetwork> synthesize_with_r_steps(const TruthTable& f, unsigned r,
                                                    std::int64_t conflict_budget, Result& verdict,
                                                    SynthesisStats* stats, bool certify_unsat)
{
    const unsigned n = f.num_vars();
    const unsigned num_patterns = 1U << n;
    const unsigned total = n + r;

    // the in-tree solver, unless BESTAGON_SAT_BACKEND re-routes it
    const auto backend = sat::make_sat_backend();
    auto& solver = *backend;
    sat::MemoryProofTracer tracer;
    const bool can_certify = certify_unsat && solver.supports_proof_tracing();
    if (can_certify)
    {
        solver.set_proof_tracer(&tracer);
    }
    solver.set_conflict_budget(conflict_budget);

    // selection variables s[i][(j,k)] for steps i in [n, total)
    struct Selection
    {
        unsigned j, k;
        Lit lit;
    };
    std::vector<std::vector<Selection>> selections(r);
    for (unsigned i = n; i < total; ++i)
    {
        auto& sel = selections[i - n];
        for (unsigned j = 0; j < i; ++j)
        {
            for (unsigned k = j + 1; k < i; ++k)
            {
                sel.push_back({j, k, pos(solver.new_var())});
            }
        }
        std::vector<Lit> lits;
        lits.reserve(sel.size());
        for (const auto& s : sel)
        {
            lits.push_back(s.lit);
        }
        sat::add_exactly_one(solver, lits);
    }

    // operator bits: o1 = f(0,1), o2 = f(1,0), o3 = f(1,1); f(0,0) = 0
    std::vector<Lit> o1(r), o2(r), o3(r);
    for (unsigned i = 0; i < r; ++i)
    {
        o1[i] = pos(solver.new_var());
        o2[i] = pos(solver.new_var());
        o3[i] = pos(solver.new_var());
        solver.add_clause(o1[i], o2[i], o3[i]);        // not const 0
        solver.add_clause(o1[i], ~o2[i], ~o3[i]);      // not projection on first operand
        solver.add_clause(~o1[i], o2[i], ~o3[i]);      // not projection on second operand
    }

    // simulation variables x[i][t] for steps; operand helpers a[i][t], b[i][t]
    std::vector<std::vector<Lit>> x(r), av(r), bv(r);
    for (unsigned i = 0; i < r; ++i)
    {
        x[i].resize(num_patterns);
        av[i].resize(num_patterns);
        bv[i].resize(num_patterns);
        for (unsigned t = 0; t < num_patterns; ++t)
        {
            x[i][t] = pos(solver.new_var());
            av[i][t] = pos(solver.new_var());
            bv[i][t] = pos(solver.new_var());
        }
    }

    const auto input_value = [&](unsigned idx, unsigned t) -> bool { return ((t >> idx) & 1U) != 0; };

    for (unsigned i = 0; i < r; ++i)
    {
        for (const auto& s : selections[i])
        {
            for (unsigned t = 0; t < num_patterns; ++t)
            {
                // link operand a to operand j's value under selection s
                if (s.j < n)
                {
                    solver.add_clause(~s.lit, input_value(s.j, t) ? av[i][t] : ~av[i][t]);
                }
                else
                {
                    solver.add_clause(~s.lit, ~av[i][t], x[s.j - n][t]);
                    solver.add_clause(~s.lit, av[i][t], ~x[s.j - n][t]);
                }
                if (s.k < n)
                {
                    solver.add_clause(~s.lit, input_value(s.k, t) ? bv[i][t] : ~bv[i][t]);
                }
                else
                {
                    solver.add_clause(~s.lit, ~bv[i][t], x[s.k - n][t]);
                    solver.add_clause(~s.lit, bv[i][t], ~x[s.k - n][t]);
                }
            }
        }
        for (unsigned t = 0; t < num_patterns; ++t)
        {
            const Lit a = av[i][t], b = bv[i][t], xi = x[i][t];
            solver.add_clause(a, b, ~xi);                       // f(0,0) = 0
            solver.add_clause(std::vector<Lit>{a, ~b, ~xi, o1[i]});
            solver.add_clause(std::vector<Lit>{a, ~b, xi, ~o1[i]});
            solver.add_clause(std::vector<Lit>{~a, b, ~xi, o2[i]});
            solver.add_clause(std::vector<Lit>{~a, b, xi, ~o2[i]});
            solver.add_clause(std::vector<Lit>{~a, ~b, ~xi, o3[i]});
            solver.add_clause(std::vector<Lit>{~a, ~b, xi, ~o3[i]});
        }
    }

    // output: x[r-1][t] == f(t) ^ out_complement
    const Lit c = pos(solver.new_var());
    for (unsigned t = 0; t < num_patterns; ++t)
    {
        const Lit xo = x[r - 1][t];
        if (f.get_bit(t))
        {
            solver.add_clause(xo, c);
            solver.add_clause(~xo, ~c);
        }
        else
        {
            solver.add_clause(xo, ~c);
            solver.add_clause(~xo, c);
        }
    }

    verdict = solver.solve();
    if (verdict != Result::satisfiable)
    {
        if (verdict == Result::unsatisfiable && can_certify && stats != nullptr)
        {
            const auto check =
                sat::check_drat_proof(sat::to_cnf(solver.root_clauses()), tracer.proof());
            if (check.valid)
            {
                ++stats->proofs_checked;
            }
            else
            {
                ++stats->proof_failures;
            }
        }
        return std::nullopt;
    }

    // decode the model into a network
    LogicNetwork net;
    std::vector<LogicNetwork::NodeId> signal(total);
    for (unsigned i = 0; i < n; ++i)
    {
        signal[i] = net.create_pi("x" + std::to_string(i));
    }
    for (unsigned i = 0; i < r; ++i)
    {
        unsigned j = 0, k = 0;
        for (const auto& s : selections[i])
        {
            if (solver.model_value(s.lit))
            {
                j = s.j;
                k = s.k;
                break;
            }
        }
        const bool b1 = solver.model_value(o1[i]);
        const bool b2 = solver.model_value(o2[i]);
        const bool b3 = solver.model_value(o3[i]);
        const auto sa = signal[j];
        const auto sb = signal[k];
        LogicNetwork::NodeId out;
        if (!b1 && !b2 && b3)
        {
            out = net.create_and(sa, sb);
        }
        else if (b1 && b2 && !b3)
        {
            out = net.create_xor(sa, sb);
        }
        else if (b1 && b2 && b3)
        {
            out = net.create_or(sa, sb);
        }
        else if (!b1 && b2 && !b3)
        {
            out = net.create_and(sa, net.create_not(sb));  // a & ~b
        }
        else if (b1 && !b2 && !b3)
        {
            out = net.create_and(net.create_not(sa), sb);  // ~a & b
        }
        else
        {
            return std::nullopt;  // excluded by constraints; defensive
        }
        signal[n + i] = out;
    }
    auto root = signal[total - 1];
    if (solver.model_value(c))
    {
        root = net.create_not(root);
    }
    net.create_po(root, "f");
    return net;
}

}  // namespace

std::optional<LogicNetwork> exact_synthesize(const TruthTable& f, unsigned max_gates,
                                             std::int64_t conflict_budget, SynthesisStats* stats,
                                             bool certify_unsat)
{
    const unsigned n = f.num_vars();

    // trivial cases first
    if (f.is_const0() || f.is_const1())
    {
        LogicNetwork net;
        for (unsigned i = 0; i < n; ++i)
        {
            net.create_pi("x" + std::to_string(i));
        }
        net.create_po(net.create_const(f.is_const1()), "f");
        return net;
    }
    unsigned var = 0;
    bool complemented = false;
    if (f.is_projection(var, complemented))
    {
        LogicNetwork net;
        std::vector<LogicNetwork::NodeId> inputs;
        for (unsigned i = 0; i < n; ++i)
        {
            inputs.push_back(net.create_pi("x" + std::to_string(i)));
        }
        const auto sig = complemented ? net.create_not(inputs[var]) : net.create_buf(inputs[var]);
        net.create_po(sig, "f");
        return net;
    }

    for (unsigned r = 1; r <= max_gates; ++r)
    {
        auto verdict = Result::unknown;
        if (auto net = synthesize_with_r_steps(f, r, conflict_budget, verdict, stats, certify_unsat))
        {
            return net;
        }
        if (stats != nullptr)
        {
            if (verdict == Result::unsatisfiable)
            {
                ++stats->unsat_steps;
            }
            else
            {
                ++stats->unknown_steps;
            }
        }
    }
    return std::nullopt;
}

namespace
{

/// A non-PI node of a table entry; fanins are node ids, unused ones 0.
struct NpnDbNode
{
    GateType type;
    std::uint8_t fanin0;
    std::uint8_t fanin1;
};

/// One NPN class: its canonical truth table and the nodes after the PIs, in
/// creation order, ending with the PO; unused slots have type none.
struct NpnDbEntry
{
    std::uint8_t num_vars;
    std::uint16_t function;
    NpnDbNode nodes[16];
};

/// Table order: by input count, then by canonical truth table.
constexpr std::uint32_t sort_key(unsigned num_vars, std::uint64_t function) noexcept
{
    return static_cast<std::uint32_t>((num_vars << 16U) | function);
}

std::span<const NpnDbEntry> npn_db_table() noexcept
{
    using enum GateType;
    static constexpr NpnDbEntry table[] = {
#include "logic/npn_db.inc"
    };
    return table;
}

/// Replays an entry into the network exact_synthesize built for it.
LogicNetwork decode(const NpnDbEntry& entry)
{
    // exact_synthesize names its PIs x0, x1, ..; entries have at most 4
    constexpr std::array<const char*, 4> pi_names{"x0", "x1", "x2", "x3"};
    LogicNetwork net;
    for (unsigned i = 0; i < entry.num_vars; ++i)
    {
        net.create_pi(pi_names.at(i));
    }
    for (const auto& node : entry.nodes)
    {
        switch (node.type)
        {
            case GateType::none: return net;
            case GateType::const0:
            case GateType::const1: net.create_const(node.type == GateType::const1); break;
            case GateType::po: net.create_po(node.fanin0, "f"); break;
            default:
            {
                std::vector<LogicNetwork::NodeId> fanins{node.fanin0, node.fanin1};
                fanins.resize(gate_arity(node.type));
                net.create_gate(node.type, fanins);
            }
        }
    }
    return net;
}

}  // namespace

const LogicNetwork* NpnDatabase::lookup(const TruthTable& canonical)
{
    auto it = cache_.find(canonical);
    if (it == cache_.end())
    {
        std::optional<LogicNetwork> impl;
        if (canonical.num_vars() <= 4)
        {
            const auto key = sort_key(canonical.num_vars(), canonical.words()[0]);
            const auto table = npn_db_table();
            const auto entry = std::lower_bound(
                table.begin(), table.end(), key,
                [](const NpnDbEntry& e, std::uint32_t k) { return sort_key(e.num_vars, e.function) < k; });
            if (entry != table.end() && sort_key(entry->num_vars, entry->function) == key)
            {
                impl = decode(*entry);
            }
        }
        if (!impl)
        {
            ++failures_;
        }
        it = cache_.emplace(canonical, std::move(impl)).first;
    }
    return it->second ? &*it->second : nullptr;
}

std::size_t NpnDatabase::table_size() noexcept { return npn_db_table().size(); }

std::size_t count_two_input_gates(const LogicNetwork& network)
{
    std::size_t count = 0;
    for (const auto id : network.topological_order())
    {
        if (gate_arity(network.type_of(id)) == 2)
        {
            ++count;
        }
    }
    return count;
}

}  // namespace bestagon::logic
