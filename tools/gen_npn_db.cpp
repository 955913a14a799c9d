/// \file gen_npn_db.cpp
/// \brief Generates the precomputed exact NPN database, src/logic/npn_db.inc.
///
/// Usage:
///   gen_npn_db [PATH]           write the table to PATH
///   gen_npn_db --check [PATH]   regenerate it in memory and byte-compare it
///                               with PATH
///
/// PATH defaults to src/logic/npn_db.inc of the source tree this tool was
/// built from. The work runs on all hardware threads. The tool enumerates every
/// NPN class of 2-, 3- and 4-input functions (4 + 14 + 222) and runs
/// exact_synthesize at its defaults on each, with every refuted gate count
/// DRAT-certified. An entry whose smaller gate counts were not all refuted
/// and certified is marked "minimality NOT proven" in the file.
///
/// --check additionally verifies that
///   - canonize_npn returns the same canonical and the same transform as the
///     enumeration-order reference on all 65 536 4-input functions, and
///   - the table compiled into this binary decodes to exactly the networks
///     just synthesized.
///
/// Exit status: 0 ok, 1 mismatch or synthesis failure, 2 usage or IO error.

#include "core/thread_pool.hpp"
#include "logic/exact_synthesis.hpp"
#include "logic/npn.hpp"
#include "sat/backend.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace
{

using namespace bestagon;
using logic::LogicNetwork;
using logic::NpnCanonization;
using logic::NpnTransform;
using logic::TruthTable;

constexpr unsigned max_vars = 4;
constexpr std::size_t max_nodes = 16;  // NpnDbEntry::nodes in exact_synthesis.cpp

TruthTable from_bits(unsigned n, std::uint32_t bits)
{
    TruthTable f{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t)
    {
        f.set_bit(t, ((bits >> t) & 1U) != 0);
    }
    return f;
}

/// Canonical representatives of all NPN classes of 2..4 inputs, ordered by
/// input count, then truth table (the table's lookup order).
std::vector<TruthTable> npn_classes()
{
    std::vector<TruthTable> classes;
    for (unsigned n = 2; n <= max_vars; ++n)
    {
        std::set<std::uint64_t> canonical;
        for (std::uint32_t bits = 0; bits < (1U << (1U << n)); ++bits)
        {
            canonical.insert(logic::canonize_npn(from_bits(n, bits)).canonical.words()[0]);
        }
        for (const auto bits : canonical)
        {
            classes.push_back(from_bits(n, static_cast<std::uint32_t>(bits)));
        }
    }
    return classes;
}

struct Synthesized
{
    std::optional<LogicNetwork> network;
    logic::SynthesisStats stats;
};

std::string hex4(std::uint64_t value)
{
    char buf[8];
    std::snprintf(buf, sizeof buf, "0x%04llx", static_cast<unsigned long long>(value));
    return buf;
}

/// The minimality claim of an entry with \p gates two-input gates.
std::string minimality(std::size_t gates, const logic::SynthesisStats& stats)
{
    if (gates == 0)
    {
        return "minimal";
    }
    const std::size_t smaller = gates - 1;
    if (stats.unknown_steps == 0 && stats.proof_failures == 0 && stats.proofs_checked == smaller)
    {
        return smaller == 0 ? "minimal" : "minimal: r < " + std::to_string(gates) + " refuted, DRAT-checked";
    }
    std::ostringstream why;
    why << "minimality NOT proven:";
    if (stats.unknown_steps != 0)
    {
        why << ' ' << stats.unknown_steps << " of " << smaller << " smaller gate counts hit the conflict budget";
    }
    if (stats.proof_failures != 0)
    {
        why << ' ' << stats.proof_failures << " refutation(s) failed the DRAT check";
    }
    return why.str();
}

/// The GateType enumerator spelled in the table, or nullptr for a node type
/// exact_synthesize never creates after the PIs.
const char* enumerator(logic::GateType type)
{
    switch (type)
    {
        case logic::GateType::const0: return "const0";
        case logic::GateType::const1: return "const1";
        case logic::GateType::buf: return "buf";
        case logic::GateType::inv: return "inv";
        case logic::GateType::and2: return "and2";
        case logic::GateType::or2: return "or2";
        case logic::GateType::xor2: return "xor2";
        case logic::GateType::po: return "po";
        default: return nullptr;
    }
}

/// One table line: {inputs, function, {{type, fanin0, fanin1}, ...}}, or an
/// empty string if \p net lacks the shape the table replays: PIs x0.. first,
/// then at most max_nodes nodes, the last of them the one PO, named "f".
std::string encode(const TruthTable& f, const LogicNetwork& net)
{
    const unsigned n = f.num_vars();
    if (net.num_pis() != n || net.num_pos() != 1 || net.pos()[0] + 1 != net.size() || net.size() - n > max_nodes ||
        net.node(net.pos()[0]).name != "f")
    {
        return {};
    }
    std::string line = "    {" + std::to_string(n) + ", " + hex4(f.words()[0]) + ", {";
    for (LogicNetwork::NodeId id = 0; id < net.size(); ++id)
    {
        const auto& node = net.node(id);
        if (id < n)
        {
            const bool named_x_id = node.name.starts_with('x') && node.name.substr(1) == std::to_string(id);
            if (node.type != logic::GateType::pi || !named_x_id)
            {
                return {};
            }
            continue;
        }
        const char* type = enumerator(node.type);
        if (type == nullptr)
        {
            return {};
        }
        const unsigned arity = logic::gate_arity(node.type);
        line += std::string{id == n ? "{" : ", {"} + type + ", " + std::to_string(arity > 0 ? node.fanin[0] : 0) +
                ", " + std::to_string(arity > 1 ? node.fanin[1] : 0) + "}";
    }
    return line + "}},";
}

/// Node-by-node identity: types, fanins, names, PI and PO lists.
bool same_network(const LogicNetwork& a, const LogicNetwork& b)
{
    if (a.size() != b.size() || a.pis() != b.pis() || a.pos() != b.pos())
    {
        return false;
    }
    for (LogicNetwork::NodeId id = 0; id < a.size(); ++id)
    {
        const auto& x = a.node(id);
        const auto& y = b.node(id);
        if (x.type != y.type || x.name != y.name)
        {
            return false;
        }
        for (unsigned i = 0; i < logic::gate_arity(x.type); ++i)
        {
            if (x.fanin[i] != y.fanin[i])
            {
                return false;
            }
        }
    }
    return true;
}

std::string render(const std::vector<TruthTable>& classes, const std::vector<Synthesized>& results)
{
    std::size_t per_arity[max_vars + 1]{};
    std::size_t unproven = 0;
    std::ostringstream body;
    for (std::size_t i = 0; i < classes.size(); ++i)
    {
        const auto gates = logic::count_two_input_gates(*results[i].network);
        const auto claim = minimality(gates, results[i].stats);
        unproven += claim.starts_with("minimality NOT proven") ? 1 : 0;
        ++per_arity[classes[i].num_vars()];
        body << encode(classes[i], *results[i].network) << "  // " << gates << (gates == 1 ? " gate, " : " gates, ")
             << claim << '\n';
    }

    std::ostringstream out;
    out << "// Generated by tools/gen_npn_db; do not edit. Regenerate from a build tree with\n"
           "//   tools/gen_npn_db            (rewrites src/logic/npn_db.inc)\n"
           "//   tools/gen_npn_db --check    (regenerates in memory and byte-compares)\n"
           "//\n"
           "// The exact NPN database: one entry per NPN class of 2-, 3- and 4-input\n"
           "// functions ("
        << per_arity[2] << " + " << per_arity[3] << " + " << per_arity[4] << " = " << classes.size()
        << "), ordered by input count, then by the\n"
           "// canonize_npn representative. Each entry is the network exact_synthesize\n"
           "// returns for that representative at its defaults ("
        << logic::default_max_gates << " gates, " << logic::default_conflict_budget
        << "\n"
           "// conflicts per SAT call, internal solver): the nodes after the PIs in\n"
           "// creation order, fanins as node ids, PIs being nodes 0 .. inputs-1.\n"
           "//\n"
           "// An entry with k two-input gates is \"minimal\" when every r < k was\n"
           "// refuted and the refutation passed the DRAT checker. An entry marked\n"
           "// \"minimality NOT proven\" had some r < k hit the conflict budget, so a\n"
           "// smaller chain may exist; there are "
        << unproven << " such entries.\n"
        << body.str();
    return out.str();
}

int usage(const char* argv0)
{
    std::cerr << "usage: " << argv0 << " [--check] [PATH]\n";
    return 2;
}

/// The enumeration-order reference canonizer: all (perm, flips, output)
/// transforms in next_permutation x flips x output order, each candidate
/// rebuilt with apply_npn_transform, the first strict minimum kept.
NpnCanonization reference_canonize(const TruthTable& f)
{
    const unsigned n = f.num_vars();
    std::vector<unsigned> perm(n);
    std::iota(perm.begin(), perm.end(), 0U);
    bool first = true;
    TruthTable best{n};
    NpnTransform best_forward;
    do
    {
        for (unsigned flips = 0; flips < (1U << n); ++flips)
        {
            for (unsigned out = 0; out < 2; ++out)
            {
                const NpnTransform t{perm, flips, out != 0};
                auto candidate = logic::apply_npn_transform(f, t);
                if (first || candidate.compare(best) < 0)
                {
                    first = false;
                    best = std::move(candidate);
                    best_forward = t;
                }
            }
        }
    } while (std::next_permutation(perm.begin(), perm.end()));

    NpnTransform inverse{std::vector<unsigned>(n), 0, best_forward.output_negated};
    for (unsigned i = 0; i < n; ++i)
    {
        inverse.perm[best_forward.perm[i]] = i;
        if ((best_forward.input_flips >> i) & 1U)
        {
            inverse.input_flips |= 1U << best_forward.perm[i];
        }
    }
    return {best, inverse};
}

/// Number of 4-input functions on which canonize_npn and the reference
/// disagree in canonical or transform.
std::size_t canonizer_mismatches()
{
    constexpr std::size_t count = 1U << 16U;
    std::vector<char> bad(count, 0);
    core::parallel_for(0, count, [&](std::size_t bits) {
        const auto f = from_bits(max_vars, static_cast<std::uint32_t>(bits));
        const auto got = logic::canonize_npn(f);
        const auto want = reference_canonize(f);
        bad[bits] = static_cast<char>(got.canonical != want.canonical || got.transform.perm != want.transform.perm ||
                                      got.transform.input_flips != want.transform.input_flips ||
                                      got.transform.output_negated != want.transform.output_negated);
    });
    return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
}

}  // namespace

int main(int argc, char** argv)
{
    bool check = false;
    std::string path = BESTAGON_NPN_DB_PATH;
    for (int i = 1; i < argc; ++i)
    {
        if (std::strcmp(argv[i], "--check") == 0)
        {
            check = true;
        }
        else if (argv[i][0] != '-')
        {
            path = argv[i];
        }
        else
        {
            return usage(argv[0]);
        }
    }
    // the table is defined by the in-tree solver; another backend could
    // return different (equally small) chains
    try
    {
        if (sat::backend_selection_from_env({.kind = sat::BackendKind::internal}).kind !=
            sat::BackendKind::internal)
        {
            std::cerr << "gen_npn_db: unset BESTAGON_SAT_BACKEND; the table is defined by the "
                         "internal solver\n";
            return 2;
        }
    }
    catch (const std::invalid_argument& e)
    {
        std::cerr << "gen_npn_db: " << e.what() << '\n';
        return 2;
    }

    const auto classes = npn_classes();
    std::vector<Synthesized> results(classes.size());
    core::parallel_for(0, classes.size(), [&](std::size_t i) {
        results[i].network = logic::exact_synthesize(classes[i], logic::default_max_gates,
                                                     logic::default_conflict_budget, &results[i].stats,
                                                     /*certify_unsat=*/true);
    });
    for (std::size_t i = 0; i < classes.size(); ++i)
    {
        if (!results[i].network || encode(classes[i], *results[i].network).empty())
        {
            std::cerr << "gen_npn_db: class " << hex4(classes[i].words()[0]) << " of " << classes[i].num_vars()
                      << " inputs: " << (results[i].network ? "unexpected network shape" : "synthesis failed")
                      << '\n';
            return 1;
        }
    }
    const auto text = render(classes, results);

    if (!check)
    {
        std::ofstream out{path, std::ios::binary};
        out << text;
        if (!out)
        {
            std::cerr << "gen_npn_db: cannot write " << path << '\n';
            return 2;
        }
        std::cout << "wrote " << classes.size() << " classes to " << path << '\n';
        return 0;
    }

    std::ifstream in{path, std::ios::binary};
    if (!in)
    {
        std::cerr << "gen_npn_db: cannot read " << path << '\n';
        return 2;
    }
    const std::string committed{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    int status = 0;
    if (committed != text)
    {
        const auto diff = std::mismatch(text.begin(), text.end(), committed.begin(), committed.end()).first;
        const auto line = 1 + std::count(text.begin(), diff, '\n');
        std::cerr << "gen_npn_db: " << path << " differs from the regenerated table from line " << line << '\n';
        status = 1;
    }

    logic::NpnDatabase database;
    std::size_t decode_mismatches = logic::NpnDatabase::table_size() == classes.size() ? 0 : 1;
    for (std::size_t i = 0; i < classes.size(); ++i)
    {
        const auto* served = database.lookup(classes[i]);
        decode_mismatches += (served == nullptr || !same_network(*served, *results[i].network)) ? 1 : 0;
    }
    if (decode_mismatches != 0)
    {
        std::cerr << "gen_npn_db: the compiled table does not decode to the synthesized networks ("
                  << decode_mismatches << " mismatches)\n";
        status = 1;
    }

    const auto canon_mismatches = canonizer_mismatches();
    if (canon_mismatches != 0)
    {
        std::cerr << "gen_npn_db: canonize_npn differs from the reference on " << canon_mismatches
                  << " of 65536 4-input functions\n";
        status = 1;
    }
    if (status == 0)
    {
        std::cout << "ok: " << classes.size() << " classes byte-identical to " << path
                  << "; compiled table decodes exactly; canonize_npn matches the reference on 65536 functions\n";
    }
    return status;
}
