/// \file flowbench.cpp
/// \brief Closed-loop benchmark of the Bestagon design flow.
///
/// One client keeps one design in flight: the next item is submitted only
/// when the previous one has returned and its outputs have been checked.
/// Four workloads stress different layers (see NOTES.md beside this file):
///
///   table1   the 14 in-memory Table-1 circuits, default FlowOptions
///            (rewrite with a fresh NpnDatabase per design)
///   pnr      the same circuits frozen after rewriting (data/inputs/*.v),
///            read as Verilog and run with rewrite = false
///   signoff  the pnr inputs with gate validation (flow step 7b) on
///   yield    a defect yield sweep over every distinct validated tile
///
/// Untraced runs call core::run_design_flow, core::run_design_flow_verilog
/// and phys::defect_yield_sweep and give the end-to-end metrics. Traced runs
/// call each layer's public function in the flow's stage order from this
/// file, record a span around every call and read the layers' stats
/// structs; they give the per-layer metrics and write the spans as Chrome
/// trace-event JSON.
///
/// Usage:
///   flowbench --workload <table1|pnr|signoff|yield> [--seed N] [--seconds S]
///             [--trace 0|1] [--trace-file out.json] [--data DIR]
///   flowbench --workload W --setup-only     set up, print "ready", exit
///   flowbench --smoke [--data DIR]          quick check of every workload
///   flowbench --freeze DIR                  regenerate DIR/inputs and
///                                           DIR/expected.txt from this build
///
/// Every line but the last is for people. The last line of standard output
/// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include "core/design_flow.hpp"
#include "core/thread_pool.hpp"
#include "io/verilog.hpp"
#include "layout/bestagon_library.hpp"
#include "logic/benchmarks.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/defect_sweep.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef FLOWBENCH_BUILD_TYPE
#define FLOWBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace bestagon;
using Clock = std::chrono::steady_clock;

/// Items a smoke run keeps per workload (the smallest ones).
constexpr std::size_t smoke_items = 3;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] double median(std::vector<double> v)
{
    if (v.empty())
    {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] double cpu_seconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

[[nodiscard]] double peak_rss_mb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Thread count of the parallel workloads: the machine's cores, at most 4.
[[nodiscard]] unsigned bench_threads()
{
    return std::min(core::resolve_thread_count(0), 4U);
}

// ---------------------------------------------------------------------------
// workloads and inputs
// ---------------------------------------------------------------------------

enum class Workload : std::uint8_t
{
    table1,
    pnr,
    signoff,
    yield
};

constexpr std::array<const char*, 4> workload_names{"table1", "pnr", "signoff", "yield"};

[[nodiscard]] const char* workload_name(Workload w)
{
    return workload_names[static_cast<std::size_t>(w)];
}

[[nodiscard]] Workload parse_workload(const std::string& name)
{
    for (std::size_t k = 0; k < workload_names.size(); ++k)
    {
        if (name == workload_names[k])
        {
            return static_cast<Workload>(k);
        }
    }
    throw std::invalid_argument{"unknown workload '" + name + "'"};
}

/// One Table-1 circuit: its in-memory specification (the reference every
/// layout is simulated against) and its frozen post-rewrite XAG Verilog.
struct Circuit
{
    std::string name;
    logic::LogicNetwork spec;
    std::vector<logic::TruthTable> function;  ///< spec.simulate()
    std::string frozen_verilog;
    std::size_t frozen_gates{0};              ///< XAG gates of frozen_verilog
};

/// One library tile swept by the yield workload.
struct Tile
{
    std::string name;
    const phys::GateDesign* design{nullptr};
};

/// Operational verdict of one tile in a signoff run (flow step 7b).
struct TileVerdict
{
    std::string name;
    bool operational{false};
    std::uint64_t patterns_correct{0};
    std::uint64_t patterns_total{0};

    bool operator==(const TileVerdict&) const = default;
};

/// Yield of one tile at one density.
struct YieldRow
{
    unsigned evaluated{0};
    unsigned operational{0};
    unsigned blocked{0};

    bool operator==(const YieldRow&) const = default;
};

/// Recorded outputs of this commit (data/expected.txt): a silent physics
/// change shows as a failed item, not as a speed-up.
struct Expected
{
    std::map<std::string, std::size_t> gates;
    std::map<std::string, std::vector<TileVerdict>> signoff;
    std::map<std::string, std::vector<YieldRow>> yields;
};

[[nodiscard]] std::string read_file(const std::filesystem::path& path)
{
    std::ifstream in{path};
    if (!in)
    {
        throw std::runtime_error{"cannot read " + path.string()};
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

[[nodiscard]] Expected load_expected(const std::filesystem::path& path)
{
    Expected e;
    std::istringstream in{read_file(path)};
    std::string line;
    while (std::getline(in, line))
    {
        std::istringstream ls{line};
        std::string kind;
        if (!(ls >> kind) || kind[0] == '#')
        {
            continue;
        }
        std::string name;
        bool ok = false;
        if (kind == "gates")
        {
            std::size_t gates = 0;
            ok = static_cast<bool>(ls >> name >> gates);
            e.gates[name] = gates;
        }
        else if (kind == "tile")
        {
            TileVerdict v;
            int operational = 0;
            ok = static_cast<bool>(ls >> name >> v.name >> operational >> v.patterns_correct >>
                                   v.patterns_total);
            v.operational = operational != 0;
            e.signoff[name].push_back(v);
        }
        else if (kind == "yield")
        {
            double density = 0.0;
            YieldRow r;
            ok = static_cast<bool>(ls >> name >> density >> r.evaluated >> r.operational >>
                                   r.blocked);
            e.yields[name].push_back(r);
        }
        if (!ok)
        {
            throw std::runtime_error{"malformed line in " + path.string() + ": " + line};
        }
    }
    return e;
}

/// Distinct simulation-validated library tiles, one per design name (the
/// library holds one entry per port orientation; mirrored variants have
/// statistically identical yield), in library order.
[[nodiscard]] std::vector<Tile> validated_tiles()
{
    std::vector<Tile> tiles;
    for (const auto& impl : layout::BestagonLibrary::instance().all())
    {
        const bool seen = std::any_of(tiles.begin(), tiles.end(),
                                      [&](const Tile& t) { return t.name == impl.design.name; });
        if (impl.simulation_validated && !seen)
        {
            tiles.push_back({impl.design.name, &impl.design});
        }
    }
    return tiles;
}

/// Everything a run needs before its first item is submitted.
struct Inputs
{
    std::vector<Circuit> circuits;
    std::vector<Tile> tiles;
    Expected expected;
};

/// Set-up: builds the Table-1 specifications, reads and checks the frozen
/// inputs, touches the gate library and the thread pool.
[[nodiscard]] Inputs set_up(const std::filesystem::path& data_dir)
{
    Inputs in;
    in.expected = load_expected(data_dir / "expected.txt");
    for (const auto& bm : logic::table1_benchmarks())
    {
        Circuit c;
        c.name = bm.name;
        c.spec = bm.build();
        c.function = c.spec.simulate();
        c.frozen_verilog = read_file(data_dir / "inputs" / (bm.name + ".v"));
        const auto frozen = io::read_verilog_string(c.frozen_verilog);
        c.frozen_gates = frozen.num_gates();
        const auto want = in.expected.gates.find(bm.name);
        if (want == in.expected.gates.end() || want->second != c.frozen_gates)
        {
            throw std::runtime_error{"frozen input " + bm.name + ".v: " +
                                     std::to_string(c.frozen_gates) +
                                     " gates, not the recorded count"};
        }
        if (frozen.simulate() != c.function)
        {
            throw std::runtime_error{"frozen input " + bm.name +
                                     ".v: not equivalent to its Table-1 specification"};
        }
        in.circuits.push_back(std::move(c));
    }
    in.tiles = validated_tiles();
    (void)core::ThreadPool::shared();
    return in;
}

// ---------------------------------------------------------------------------
// tracing: spans kept in memory, written once as Chrome trace-event JSON
// ---------------------------------------------------------------------------

struct Span
{
    std::string name;
    double start_us{0.0};
    double end_us{0.0};
    int parent{-1};
    int item{-1};   ///< index of the design/tile the span belongs to
    int pass{-1};
    unsigned tid{0};
};

[[nodiscard]] unsigned thread_index()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next++;
    return id;
}

/// Thread-safe span store. Spans are opened and closed by index so that a
/// parent can be named before its children (some on pool workers) finish.
class Trace
{
  public:
    explicit Trace(Clock::time_point origin) : origin_{origin} {}

    int open(std::string name, int parent, int item, int pass)
    {
        Span s;
        s.name = std::move(name);
        s.start_us = now_us();
        s.parent = parent;
        s.item = item;
        s.pass = pass;
        s.tid = thread_index();
        const std::lock_guard lock{mutex_};
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int id)
    {
        const double t = now_us();
        const std::lock_guard lock{mutex_};
        spans_[static_cast<std::size_t>(id)].end_us = t;
    }

    /// Only called while no span is open.
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  private:
    [[nodiscard]] double now_us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
    }

    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan
{
  public:
    ScopedSpan(Trace& trace, std::string name, int parent, int item, int pass)
        : trace_{trace}, id_{trace.open(std::move(name), parent, item, pass)}
    {
    }
    ~ScopedSpan() { trace_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int id() const noexcept { return id_; }

  private:
    Trace& trace_;
    int id_;
};

void json_string(std::ostream& out, const std::string& s)
{
    out << '"';
    for (const char c : s)
    {
        if (c == '"' || c == '\\')
        {
            out << '\\';
        }
        out << c;
    }
    out << '"';
}

void write_chrome_trace(const std::string& path, const Trace& trace,
                        const std::vector<std::string>& item_names)
{
    std::ofstream out{path};
    if (!out)
    {
        throw std::runtime_error{"cannot write trace file " + path};
    }
    out.precision(17);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    const auto& spans = trace.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
    {
        const auto& s = spans[i];
        out << "{\"name\":";
        json_string(out, s.name);
        out << ",\"cat\":\"flowbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass
            << ",\"design\":";
        json_string(out, s.item >= 0 ? item_names[static_cast<std::size_t>(s.item)] : "");
        out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

/// Per-layer values of one traced pass, keyed by metric name.
using Layers = std::map<std::string, double>;

/// Adds every span's self time (its duration minus the part of it that its
/// children cover) to `<name>.ms` and `<name>.ms.<design>`, and the pass's
/// unaccounted time (self time of the per-item spans: glue between layer
/// calls) to trace.unaccounted_ms.
void add_self_times(const std::vector<Span>& spans, int pass,
                    const std::vector<std::string>& item_names, Layers& layers)
{
    std::map<int, std::vector<std::pair<double, double>>> children;
    for (const auto& s : spans)
    {
        if (s.pass == pass && s.parent >= 0)
        {
            children[s.parent].emplace_back(s.start_us, s.end_us);
        }
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
    {
        const auto& s = spans[i];
        if (s.pass != pass)
        {
            continue;
        }
        double covered = 0.0;
        auto& kids = children[static_cast<int>(i)];
        std::sort(kids.begin(), kids.end());
        double reach = s.start_us;
        for (const auto& [a, b] : kids)
        {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end_us);
            if (hi > lo)
            {
                covered += hi - lo;
                reach = hi;
            }
        }
        const double self_ms = (s.end_us - s.start_us - covered) / 1000.0;
        if (s.name == "bench.item")
        {
            layers["trace.unaccounted_ms"] += self_ms;
            continue;
        }
        layers[s.name + ".ms"] += self_ms;
        layers[s.name + ".ms." + item_names[static_cast<std::size_t>(s.item)]] += self_ms;
    }
}

// ---------------------------------------------------------------------------
// running items
// ---------------------------------------------------------------------------

struct ItemResult
{
    std::string failure;  ///< empty when every output check passed
    std::uint64_t area{0};
    std::uint64_t sidbs{0};
};

[[nodiscard]] core::FlowOptions flow_options(Workload w)
{
    core::FlowOptions o;
    o.rewrite = w == Workload::table1;
    if (w == Workload::signoff)
    {
        o.validate_gates = true;
        o.sim_params.num_threads = bench_threads();
    }
    return o;
}

/// The output checks every layout must pass, independent of the SAT miter
/// beyond requiring its verdict: exact engine, proven equivalence, DRC
/// clean, and the extracted layout simulates to the specification.
[[nodiscard]] std::string layout_failure(const Circuit& c, const logic::LogicNetwork& mapped,
                                         const std::optional<layout::GateLevelLayout>& gate_layout,
                                         bool exact_engine, layout::EquivalenceResult eq,
                                         const layout::DrcReport& drc,
                                         const std::optional<layout::SiDBLayout>& sidb)
{
    if (!gate_layout.has_value())
    {
        return "no layout";
    }
    if (!exact_engine)
    {
        return "scalable fallback";
    }
    if (eq != layout::EquivalenceResult::equivalent)
    {
        return "equivalence not proven";
    }
    if (!drc.clean())
    {
        return "DRC violations";
    }
    if (!sidb.has_value() || sidb->num_sidbs() == 0)
    {
        return "no SiDB layout";
    }
    if (gate_layout->extract_network(mapped).simulate() != c.function)
    {
        return "layout does not simulate to the specification";
    }
    return {};
}

/// Checks a flow's outputs. Area and SiDB count are kept when a check fails,
/// so a layout that fails still counts with its size.
[[nodiscard]] ItemResult check_layout(const Circuit& c, const logic::LogicNetwork& mapped,
                                      const std::optional<layout::GateLevelLayout>& gate_layout,
                                      bool exact_engine, layout::EquivalenceResult eq,
                                      const layout::DrcReport& drc,
                                      const std::optional<layout::SiDBLayout>& sidb)
{
    ItemResult r;
    r.failure = layout_failure(c, mapped, gate_layout, exact_engine, eq, drc, sidb);
    r.area = gate_layout.has_value() ? gate_layout->area() : 0;
    r.sidbs = sidb.has_value() ? sidb->num_sidbs() : 0;
    return r;
}

[[nodiscard]] std::string check_verdicts(const Circuit& c, const std::vector<TileVerdict>& got,
                                         const Expected& expected)
{
    const auto want = expected.signoff.find(c.name);
    if (want == expected.signoff.end() || want->second != got)
    {
        return "tile verdicts differ from data/expected.txt";
    }
    return {};
}

[[nodiscard]] std::string check_yield(const Tile& t, const phys::DefectSweepResult& r,
                                      const phys::DefectSweepParams& sweep,
                                      const Expected& expected)
{
    if (r.cancelled || r.points.size() != sweep.densities_per_nm2.size())
    {
        return "sweep incomplete";
    }
    std::vector<YieldRow> rows;
    for (std::size_t i = 0; i < r.points.size(); ++i)
    {
        const auto& p = r.points[i];
        if (p.samples_evaluated != sweep.samples)
        {
            return "sweep incomplete";
        }
        if (i > 0 && p.yield() > r.points[i - 1].yield())
        {
            return "yield increases with density";
        }
        rows.push_back({p.samples_evaluated, p.operational, p.blocked});
    }
    const auto want = expected.yields.find(t.name);
    if (want == expected.yields.end() || want->second != rows)
    {
        return "yield curve differs from data/expected.txt";
    }
    return {};
}

/// Monte-Carlo samples per density of the yield workload: a quarter of the
/// library default, so that a pass takes about 2 s and a run measures many
/// passes. With 100 samples a pass took 8-10 s and the medians of the small
/// tiles over the 3 passes of a run were too noisy (see NOTES.md).
constexpr unsigned yield_samples = 25;

/// The library's default densities and sweep seed with yield_samples samples,
/// so every run sweeps the same defect surfaces: the sweep's cost depends
/// strongly on the surfaces drawn, and a seed-dependent sweep would make the
/// workload's time vary with the benchmark seed (see NOTES.md).
[[nodiscard]] phys::DefectSweepParams sweep_params()
{
    phys::DefectSweepParams sweep;
    sweep.samples = yield_samples;
    sweep.num_threads = bench_threads();
    return sweep;
}

/// A swept tile counts as a one-tile layout with its design's SiDBs.
[[nodiscard]] ItemResult tile_item(const Tile& t)
{
    return {{}, 1, t.design->sites.size()};
}

/// Untraced item: the public entry point a user calls. Returns the check
/// outcome; \p ms receives the call's wall time (checks excluded).
[[nodiscard]] ItemResult run_item(Workload w, const Inputs& in, std::size_t i, double& ms)
{
    if (w == Workload::yield)
    {
        const auto& t = in.tiles[i];
        const auto sweep = sweep_params();
        const auto t0 = Clock::now();
        const auto r = phys::defect_yield_sweep(*t.design, phys::SimulationParameters{}, sweep);
        ms = ms_between(t0, Clock::now());
        auto item = tile_item(t);
        item.failure = check_yield(t, r, sweep, in.expected);
        return item;
    }
    const auto& c = in.circuits[i];
    const auto options = flow_options(w);
    const auto t0 = Clock::now();
    const auto r = w == Workload::table1 ? core::run_design_flow(c.spec, options)
                                         : core::run_design_flow_verilog(c.frozen_verilog, options);
    ms = ms_between(t0, Clock::now());

    auto item = check_layout(c, r.mapped, r.layout, r.engine_used == "exact", r.equivalence,
                             r.drc, r.sidb);
    if (item.failure.empty() && w == Workload::signoff)
    {
        std::vector<TileVerdict> got;
        for (const auto& v : r.gate_validation)
        {
            if (!v.evaluated)
            {
                item.failure = "tile check not evaluated";
            }
            got.push_back({v.name, v.operational, v.patterns_correct, v.patterns_total});
        }
        if (item.failure.empty())
        {
            item.failure = check_verdicts(c, got, in.expected);
        }
    }
    return item;
}

/// Per-layer metrics reported for each design as `<metric>.<design>`.
const std::vector<std::string>& per_design_metrics()
{
    static const std::vector<std::string> names{
        "logic.rewrite.ms", "logic.npn.classes_synthesized", "layout.exact_pd.ms",
        "sat.exact_pd.conflicts", "phys.check_operational.ms"};
    return names;
}

/// Traced item: the flow's layers called one by one, in the order of
/// run_flow_stages, each inside a span. Counts go to \p layers. For table1,
/// \p database is the design's fresh NpnDatabase (kept by the caller for the
/// warm-rewrite measurement).
[[nodiscard]] ItemResult run_traced_item(Workload w, const Inputs& in, std::size_t i,
                                         Trace& trace, int pass,
                                         logic::NpnDatabase* database, Layers& layers,
                                         double& parallel_busy, double& parallel_capacity)
{
    const int item = static_cast<int>(i);
    const auto count = [&](const std::string& name, double v, const std::string& design = {}) {
        layers[name] += v;
        if (!design.empty())
        {
            layers[name + "." + design] += v;
        }
    };

    if (w == Workload::yield)
    {
        const auto& t = in.tiles[i];
        const auto sweep = sweep_params();
        phys::DefectSweepResult r;
        {
            const ScopedSpan root{trace, "bench.item", -1, item, pass};
            const ScopedSpan span{trace, "phys.defect_sweep", root.id(), item, pass};
            const double cpu0 = cpu_seconds();
            const auto t0 = Clock::now();
            r = phys::defect_yield_sweep(*t.design, phys::SimulationParameters{}, sweep);
            const double wall = ms_between(t0, Clock::now()) / 1000.0;
            parallel_busy += cpu_seconds() - cpu0;
            parallel_capacity += wall * sweep.num_threads;
        }
        unsigned samples = 0;
        for (const auto& p : r.points)
        {
            samples += p.samples_evaluated;
        }
        count("phys.defect_sweep.samples", samples);
        if (!r.points.empty())
        {
            const auto& last = r.points.back();
            count("phys.defect_sweep.failed", last.samples_evaluated - last.operational);
            count("phys.defect_sweep.blocked", last.blocked);
        }
        auto result = tile_item(t);
        result.failure = check_yield(t, r, sweep, in.expected);
        return result;
    }

    const auto& c = in.circuits[i];
    const auto& d = c.name;
    const auto options = flow_options(w);

    logic::LogicNetwork mapped;
    std::optional<layout::GateLevelLayout> gate_layout;
    bool exact_engine = true;
    auto eq = layout::EquivalenceResult::unknown;
    layout::DrcReport drc;
    std::optional<layout::SiDBLayout> sidb;
    std::vector<TileVerdict> verdicts;
    {
        const ScopedSpan root{trace, "bench.item", -1, item, pass};
        const auto stage = [&](const char* name) {
            return ScopedSpan{trace, name, root.id(), item, pass};
        };

        logic::LogicNetwork parsed;
        if (w != Workload::table1)
        {
            const auto span = stage("io.read_verilog");
            parsed = io::read_verilog_string(c.frozen_verilog);
        }
        const auto& spec = w == Workload::table1 ? c.spec : parsed;

        logic::LogicNetwork xag;
        {
            const auto span = stage("logic.to_xag");
            xag = logic::to_xag(spec);
        }
        logic::LogicNetwork rewritten;
        if (options.rewrite)
        {
            logic::RewriteStats rs;
            {
                const auto span = stage("logic.rewrite");
                rewritten = logic::rewrite(xag, *database, &rs);
            }
            const auto failures = database->num_synthesis_failures();
            count("logic.npn.classes_synthesized",
                  static_cast<double>(database->num_entries() - failures), d);
            count("logic.npn.synthesis_failures", static_cast<double>(failures));
            count("logic.rewrite.passes", static_cast<double>(rs.passes));
            count("logic.rewrite.replacements", static_cast<double>(rs.replacements));
            count("logic.rewrite.gates_before", static_cast<double>(rs.gates_before));
            count("logic.rewrite.gates_after", static_cast<double>(rs.gates_after));
        }
        else
        {
            rewritten = xag;
        }
        {
            const auto span = stage("logic.tech_mapping");
            mapped = logic::map_to_bestagon(rewritten);
        }

        layout::ExactPDStats pd;
        {
            const auto span = stage("layout.exact_pd");
            gate_layout = layout::exact_physical_design(mapped, options.exact_options, &pd);
        }
        unsigned unsat = 0;
        unsigned sat = 0;
        for (const auto& v : pd.size_verdicts)
        {
            unsat += v.result == sat::Result::unsatisfiable ? 1U : 0U;
            sat += v.result == sat::Result::satisfiable ? 1U : 0U;
        }
        count("layout.exact_pd.rungs_tried", pd.sizes_tried);
        count("layout.exact_pd.rungs_unsat", unsat);
        count("layout.exact_pd.rungs_sat", sat);
        count("layout.exact_pd.grid_generations", pd.grid_generations);
        count("sat.exact_pd.conflicts", static_cast<double>(pd.total_conflicts), d);
        if (!gate_layout.has_value() && !pd.cancelled)
        {
            const auto span = stage("layout.scalable_pd");
            gate_layout = layout::scalable_physical_design(mapped);
            exact_engine = false;
            count("layout.exact_pd.fallbacks", 1);
        }

        if (gate_layout.has_value())
        {
            layout::EquivalenceStats es;
            {
                const auto span = stage("layout.equivalence");
                eq = layout::check_layout_equivalence(mapped, *gate_layout, &es);
            }
            count("sat.equivalence.conflicts", static_cast<double>(es.conflicts));

            std::optional<layout::SuperTileLayout> supertiles;
            {
                const auto span = stage("layout.supertiles");
                supertiles = layout::make_supertiles(*gate_layout, options.supertile_expansion);
            }
            {
                const auto span = stage("layout.drc");
                drc = layout::check_design_rules(*supertiles);
            }
            layout::ApplyStats as;
            {
                const auto span = stage("layout.apply_library");
                sidb = layout::apply_gate_library(*gate_layout, &as);
            }
            count("layout.apply_library.tiles_mapped", static_cast<double>(as.tiles_mapped));

            if (options.validate_gates)
            {
                const auto& used = as.implementations_used;
                std::vector<phys::OperationalResult> checks(used.size());
                std::vector<double> task_ms(used.size(), 0.0);
                const auto threads = core::resolve_thread_count(options.sim_params.num_threads);
                const ScopedSpan pf{trace, "core.parallel_for", root.id(), item, pass};
                const auto t0 = Clock::now();
                core::parallel_for(options.sim_params.num_threads, used.size(), [&](std::size_t k) {
                    const ScopedSpan span{trace, "phys.check_operational", pf.id(), item, pass};
                    const auto s0 = Clock::now();
                    checks[k] = phys::check_operational(used[k]->design, options.sim_params,
                                                        options.validation_engine);
                    task_ms[k] = ms_between(s0, Clock::now());
                });
                const double wall_ms = ms_between(t0, Clock::now());
                double busy_ms = 0.0;
                for (std::size_t k = 0; k < used.size(); ++k)
                {
                    busy_ms += task_ms[k];
                    layers["phys.check_operational.max_ms"] =
                        std::max(layers["phys.check_operational.max_ms"], task_ms[k]);
                    count("phys.check_operational.calls", 1);
                    count("phys.check_operational.patterns",
                          static_cast<double>(checks[k].patterns_total));
                    count("phys.check_operational.tiles_operational",
                          checks[k].operational ? 1 : 0);
                    verdicts.push_back({used[k]->design.name, checks[k].operational,
                                        checks[k].patterns_correct, checks[k].patterns_total});
                }
                parallel_busy += busy_ms / 1000.0;
                parallel_capacity += wall_ms / 1000.0 * threads;
            }
        }
    }

    auto result = check_layout(c, mapped, gate_layout, exact_engine, eq, drc, sidb);
    if (result.failure.empty() && options.validate_gates)
    {
        result.failure = check_verdicts(c, verdicts, in.expected);
    }
    return result;
}

// ---------------------------------------------------------------------------
// passes
// ---------------------------------------------------------------------------

/// Item order of one pass: a Fisher-Yates shuffle seeded by (seed, pass).
[[nodiscard]] std::vector<std::size_t> pass_order(const std::vector<std::size_t>& items,
                                                  std::uint64_t seed, std::size_t pass)
{
    auto order = items;
    const auto pass_seed = core::derive_seed(seed, pass);
    for (std::size_t k = order.size(); k > 1; --k)
    {
        const auto j = core::derive_seed(pass_seed, k) % k;
        std::swap(order[k - 1], order[j]);
    }
    return order;
}

/// Outcome of a series of passes over the same items.
struct Series
{
    std::vector<double> pass_ms;                  ///< Σ item time per pass
    std::map<std::size_t, std::vector<double>> item_ms;
    std::map<std::size_t, ItemResult> first;      ///< first result per item
    std::vector<Layers> layers;                   ///< traced: one per pass
    std::size_t attempted{0};
    std::size_t failed{0};
};

void record(Series& s, std::size_t i, double ms, ItemResult r, const std::string& name)
{
    ++s.attempted;
    s.item_ms[i].push_back(ms);
    const auto first = s.first.find(i);
    if (r.failure.empty() && first != s.first.end() &&
        (first->second.area != r.area || first->second.sidbs != r.sidbs))
    {
        r.failure = "result differs between passes";
    }
    if (!r.failure.empty())
    {
        ++s.failed;
        std::printf("FAILED %s: %s\n", name.c_str(), r.failure.c_str());
    }
    if (first == s.first.end())
    {
        s.first.emplace(i, std::move(r));
    }
}

[[nodiscard]] std::vector<std::string> item_names(Workload w, const Inputs& in)
{
    std::vector<std::string> names;
    if (w == Workload::yield)
    {
        for (const auto& t : in.tiles) names.push_back(t.name);
    }
    else
    {
        for (const auto& c : in.circuits) names.push_back(c.name);
    }
    return names;
}

/// The series of one run. Tracing keeps each table1 design's NpnDatabase of
/// the last traced pass, for the warm-rewrite measurement.
struct Run
{
    Series plain;
    Series traced;
    std::vector<std::unique_ptr<logic::NpnDatabase>> databases;
};

/// One pass over \p items in the pass's shuffled order; traced when \p trace
/// is set.
void run_pass(Workload w, const Inputs& in, const std::vector<std::size_t>& items,
              std::uint64_t seed, std::size_t pass, Trace* trace, Run& run)
{
    const auto names = item_names(w, in);
    auto& s = trace == nullptr ? run.plain : run.traced;
    double pass_ms = 0.0;
    Layers layers;
    double busy = 0.0;
    double capacity = 0.0;
    for (const auto i : pass_order(items, seed, pass))
    {
        double ms = 0.0;
        ItemResult r;
        try
        {
            if (trace == nullptr)
            {
                r = run_item(w, in, i, ms);
            }
            else
            {
                logic::NpnDatabase* db = nullptr;
                if (w == Workload::table1)
                {
                    run.databases[i] = std::make_unique<logic::NpnDatabase>();
                    db = run.databases[i].get();
                }
                const auto first_span = trace->spans().size();
                r = run_traced_item(w, in, i, *trace, static_cast<int>(pass), db, layers, busy,
                                    capacity);
                const auto& root = trace->spans()[first_span];
                ms = (root.end_us - root.start_us) / 1000.0;
            }
        }
        catch (const std::exception& e)
        {
            r.failure = std::string{"exception: "} + e.what();
        }
        pass_ms += ms;
        record(s, i, ms, std::move(r), names[i]);
    }
    s.pass_ms.push_back(pass_ms);
    if (trace != nullptr)
    {
        add_self_times(trace->spans(), static_cast<int>(pass), names, layers);
        layers["core.parallel_for.busy_share"] = capacity > 0.0 ? busy / capacity : 0.0;
        s.layers.push_back(std::move(layers));
    }
}

/// Runs at least one pass, and another one while it would end within
/// \p seconds if it took as long as the last one. With a trace, every
/// untraced pass is followed by a traced pass in the same order, so that
/// drift and warm-up affect both series alike.
[[nodiscard]] Run run_passes(Workload w, const Inputs& in, const std::vector<std::size_t>& items,
                             std::uint64_t seed, double seconds, Trace* trace)
{
    Run run;
    run.databases.resize(in.circuits.size());
    const auto start = Clock::now();
    double last_ms = 0.0;
    for (std::size_t pass = 0;
         pass == 0 || ms_between(start, Clock::now()) + last_ms <= 1000.0 * seconds; ++pass)
    {
        const auto pass_start = Clock::now();
        run_pass(w, in, items, seed, pass, nullptr, run);
        if (trace != nullptr)
        {
            run_pass(w, in, items, seed, pass, trace, run);
        }
        last_ms = ms_between(pass_start, Clock::now());
    }
    return run;
}

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value{0.0};
    std::string unit;
};

/// The per-layer metric set, identical for every workload (layers a
/// workload does not reach read 0).
[[nodiscard]] std::vector<Metric> per_layer_template(const Inputs& in)
{
    std::vector<Metric> m{
        {"io.read_verilog.ms", 0, "ms"},
        {"logic.to_xag.ms", 0, "ms"},
        {"logic.rewrite.ms", 0, "ms"},
        {"logic.rewrite.warm_ms", 0, "ms"},
        {"logic.npn.classes_synthesized", 0, "count"},
        {"logic.npn.synthesis_failures", 0, "count"},
        {"logic.rewrite.passes", 0, "count"},
        {"logic.rewrite.replacements", 0, "count"},
        {"logic.rewrite.gates_before", 0, "count"},
        {"logic.rewrite.gates_after", 0, "count"},
        {"logic.tech_mapping.ms", 0, "ms"},
        {"layout.exact_pd.ms", 0, "ms"},
        {"layout.exact_pd.rungs_tried", 0, "count"},
        {"layout.exact_pd.rungs_unsat", 0, "count"},
        {"layout.exact_pd.sat_ratio", 0, "ratio"},
        {"layout.exact_pd.grid_generations", 0, "count"},
        {"layout.exact_pd.fallbacks", 0, "count"},
        {"sat.exact_pd.conflicts", 0, "count"},
        {"layout.scalable_pd.ms", 0, "ms"},
        {"layout.equivalence.ms", 0, "ms"},
        {"sat.equivalence.conflicts", 0, "count"},
        {"layout.supertiles.ms", 0, "ms"},
        {"layout.drc.ms", 0, "ms"},
        {"layout.apply_library.ms", 0, "ms"},
        {"layout.apply_library.tiles_mapped", 0, "count"},
        {"core.parallel_for.ms", 0, "ms"},
        {"core.parallel_for.busy_share", 0, "ratio"},
        {"phys.check_operational.ms", 0, "ms"},
        {"phys.check_operational.max_ms", 0, "ms"},
        {"phys.check_operational.calls", 0, "count"},
        {"phys.check_operational.patterns", 0, "count"},
        {"phys.check_operational.tiles_operational", 0, "count"},
        {"phys.defect_sweep.ms", 0, "ms"},
        {"phys.defect_sweep.samples", 0, "count"},
        {"phys.defect_sweep.blocked_ratio", 0, "ratio"},
        {"trace.overhead_ratio", 0, "ratio"},
        {"trace.unaccounted_ms", 0, "ms"},
        {"suite.passes", 0, "count"},
        {"suite_s.max", 0, "s"},
    };
    for (const auto& base : per_design_metrics())
    {
        const auto unit = base.ends_with(".ms") ? "ms" : "count";
        for (const auto& c : in.circuits)
        {
            m.push_back({base + "." + c.name, 0, unit});
        }
    }
    for (const auto& t : in.tiles)
    {
        m.push_back({"phys.defect_sweep.ms." + t.name, 0, "ms"});
    }
    return m;
}

[[nodiscard]] double geomean_of_item_medians(const Series& s)
{
    double log_sum = 0.0;
    for (const auto& [i, times] : s.item_ms)
    {
        log_sum += std::log(std::max(median(times), 1e-6));
    }
    return s.item_ms.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(s.item_ms.size()));
}

[[nodiscard]] std::vector<Metric> end_to_end(const Series& s)
{
    std::uint64_t tiles = 0;
    std::uint64_t sidbs = 0;
    for (const auto& [i, r] : s.first)
    {
        tiles += r.area;
        sidbs += r.sidbs;
    }
    const double attempted = static_cast<double>(std::max<std::size_t>(s.attempted, 1));
    return {
        {"suite_s", median(s.pass_ms) / 1000.0, "s"},
        {"design_ms.geomean", geomean_of_item_medians(s), "ms"},
        {"success_ratio", static_cast<double>(s.attempted - s.failed) / attempted, "ratio"},
        {"layout_tiles", static_cast<double>(tiles), "count"},
        {"sidbs", static_cast<double>(sidbs), "count"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics)
{
    for (const auto& m : metrics)
    {
        std::printf("%-48s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t k = 0; k < metrics.size(); ++k)
    {
        out << (k ? ", " : "");
        json_string(out, metrics[k].name);
        out << ": {\"value\": " << (std::isfinite(metrics[k].value) ? metrics[k].value : 0.0)
            << ", \"unit\": ";
        json_string(out, metrics[k].unit);
        out << "}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
}

/// Per-layer metrics of a traced series, with the untraced series of the
/// same run as the overhead reference.
[[nodiscard]] std::vector<Metric> per_layer(const Inputs& in, const Series& plain,
                                            const Series& traced, const Trace& trace,
                                            double warm_ms)
{
    auto metrics = per_layer_template(in);
    for (auto& m : metrics)
    {
        std::vector<double> values;
        for (const auto& layers : traced.layers)
        {
            const auto it = layers.find(m.name);
            values.push_back(it == layers.end() ? 0.0 : it->second);
        }
        m.value = median(values);
    }
    const auto set = [&](const std::string& name, double v) {
        for (auto& m : metrics)
        {
            if (m.name == name)
            {
                m.value = v;
                return;
            }
        }
        throw std::logic_error{"no per-layer metric " + name};
    };
    const auto& last = traced.layers.back();
    const auto get = [&](const std::string& name) {
        const auto it = last.find(name);
        return it == last.end() ? 0.0 : it->second;
    };
    const double rungs = get("layout.exact_pd.rungs_tried");
    set("layout.exact_pd.sat_ratio", rungs > 0 ? get("layout.exact_pd.rungs_sat") / rungs : 0.0);
    const double failed = get("phys.defect_sweep.failed");
    set("phys.defect_sweep.blocked_ratio",
        failed > 0 ? get("phys.defect_sweep.blocked") / failed : 0.0);
    set("logic.rewrite.warm_ms", warm_ms);
    const double plain_s = median(plain.pass_ms);
    set("trace.overhead_ratio", plain_s > 0 ? median(traced.pass_ms) / plain_s - 1.0 : 0.0);
    set("suite.passes", static_cast<double>(plain.pass_ms.size()));
    set("suite_s.max", *std::max_element(plain.pass_ms.begin(), plain.pass_ms.end()) / 1000.0);

    // where the time went: the layers by self time, largest first
    std::vector<std::pair<double, std::string>> self;
    double total = 0.0;
    for (const auto& m : metrics)
    {
        const bool layer = m.unit == "ms" && m.name.find(".ms.") == std::string::npos &&
                           m.name != "phys.check_operational.max_ms" &&
                           m.name != "logic.rewrite.warm_ms";
        if (layer)
        {
            self.emplace_back(m.value, m.name);
            total += m.value;
        }
    }
    std::sort(self.rbegin(), self.rend());
    std::printf("self time per layer (median traced pass, %zu spans recorded):\n",
                trace.spans().size());
    for (const auto& [ms, name] : self)
    {
        if (ms > 0.0)
        {
            std::printf("  %-40s %12.3f ms %6.2f %%\n", name.c_str(), ms,
                        total > 0 ? 100.0 * ms / total : 0.0);
        }
    }
    return metrics;
}

// ---------------------------------------------------------------------------
// modes
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    bool setup_only{false};
    bool smoke{false};
    std::string data_dir{"flowbench/data"};
    std::string trace_file;
    std::string freeze_dir;
};

[[nodiscard]] Args parse_args(int argc, char** argv)
{
    Args a;
    for (int k = 1; k < argc; ++k)
    {
        const std::string arg = argv[k];
        const auto value = [&]() -> std::string {
            if (k + 1 >= argc)
            {
                throw std::invalid_argument{arg + " needs a value"};
            }
            return argv[++k];
        };
        if (arg == "--workload") a.workload = value();
        else if (arg == "--seed") a.seed = std::stoull(value());
        else if (arg == "--seconds") a.seconds = std::stod(value());
        else if (arg == "--trace") a.trace = value() != "0";
        else if (arg == "--trace-file") a.trace_file = value();
        else if (arg == "--data") a.data_dir = value();
        else if (arg == "--freeze") a.freeze_dir = value();
        else if (arg == "--setup-only") a.setup_only = true;
        else if (arg == "--smoke") a.smoke = true;
        else throw std::invalid_argument{"unknown argument " + arg};
    }
    if (a.workload.empty() && !a.smoke && a.freeze_dir.empty())
    {
        throw std::invalid_argument{"--workload is required"};
    }
    if (!(a.seconds >= 0.0))
    {
        throw std::invalid_argument{"--seconds must be >= 0"};
    }
    return a;
}

[[nodiscard]] std::vector<std::size_t> all_items(Workload w, const Inputs& in)
{
    std::vector<std::size_t> items(w == Workload::yield ? in.tiles.size() : in.circuits.size());
    for (std::size_t i = 0; i < items.size(); ++i) items[i] = i;
    return items;
}

/// The smallest items of a workload: fewest frozen XAG gates, or fewest
/// tile sites.
[[nodiscard]] std::vector<std::size_t> smallest_items(Workload w, const Inputs& in)
{
    auto items = all_items(w, in);
    const auto size = [&](std::size_t i) {
        return w == Workload::yield ? in.tiles[i].design->sites.size()
                                    : in.circuits[i].frozen_gates;
    };
    std::stable_sort(items.begin(), items.end(),
                     [&](std::size_t a, std::size_t b) { return size(a) < size(b); });
    items.resize(std::min(items.size(), smoke_items));
    return items;
}

int run_workload(const Args& a, const Clock::time_point process_start)
{
    const auto w = parse_workload(a.workload);
    const auto in = set_up(a.data_dir);
    const double setup_s = ms_between(process_start, Clock::now()) / 1000.0;
    std::printf("flowbench: workload=%s seed=%llu seconds=%g trace=%d num_cpus=%u threads=%u "
                "build_type=%s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, std::thread::hardware_concurrency(),
                w == Workload::signoff || w == Workload::yield ? bench_threads() : 1U,
                FLOWBENCH_BUILD_TYPE);
    std::printf("ready %.9f\n", setup_s);
    std::fflush(stdout);
    if (a.setup_only)
    {
        return 0;
    }

    const auto items = all_items(w, in);
    if (!a.trace)
    {
        const auto s = run_passes(w, in, items, a.seed, a.seconds, nullptr).plain;
        const auto names = item_names(w, in);
        for (const auto& [i, times] : s.item_ms)
        {
            const auto& r = s.first.at(i);
            std::printf("item %-16s area %4llu  SiDBs %5llu  median %12.3f ms\n", names[i].c_str(),
                        static_cast<unsigned long long>(r.area),
                        static_cast<unsigned long long>(r.sidbs), median(times));
        }
        std::printf("passes %zu, suite_s max %.6f s\n", s.pass_ms.size(),
                    *std::max_element(s.pass_ms.begin(), s.pass_ms.end()) / 1000.0);
        print_result(s.failed == 0, s.attempted, s.failed, end_to_end(s));
        return 0;
    }

    // traced mode: untraced passes (the overhead reference) alternate with
    // traced ones
    Trace trace{Clock::now()};
    const auto run = run_passes(w, in, items, a.seed, a.seconds, &trace);
    const auto& plain = run.plain;
    const auto& traced = run.traced;

    // warm rewrite: a second call on each design's (now filled) database
    double warm_ms = 0.0;
    if (w == Workload::table1)
    {
        for (const auto i : items)
        {
            const ScopedSpan span{trace, "logic.rewrite.warm", -1, static_cast<int>(i), -1};
            const auto t0 = Clock::now();
            (void)logic::rewrite(logic::to_xag(in.circuits[i].spec), *run.databases[i]);
            warm_ms += ms_between(t0, Clock::now());
        }
    }

    // the benchmark's copy of the flow must give what the flow gives
    std::size_t failed = plain.failed + traced.failed;
    const auto names = item_names(w, in);
    for (const auto& [i, r] : traced.first)
    {
        const auto& p = plain.first.at(i);
        if (r.area != p.area || r.sidbs != p.sidbs)
        {
            std::printf("FAILED %s: traced run differs from the flow "
                        "(area %llu vs %llu, SiDBs %llu vs %llu)\n",
                        names[i].c_str(), static_cast<unsigned long long>(r.area),
                        static_cast<unsigned long long>(p.area),
                        static_cast<unsigned long long>(r.sidbs),
                        static_cast<unsigned long long>(p.sidbs));
            ++failed;
        }
    }
    const auto metrics = per_layer(in, plain, traced, trace, warm_ms);
    if (!a.trace_file.empty())
    {
        write_chrome_trace(a.trace_file, trace, names);
        std::printf("spans written to %s\n", a.trace_file.c_str());
    }
    print_result(failed == 0, plain.attempted + traced.attempted, failed, metrics);
    return 0;
}

/// Quick check of every workload on its smallest items (traced and
/// untraced), plus the frozen inputs' defining property: each frozen circuit
/// lays out at exactly its table1 area.
int run_smoke(const Args& a)
{
    const auto in = set_up(a.data_dir);
    std::size_t failed = 0;
    std::size_t attempted = 0;
    for (const auto w : {Workload::table1, Workload::pnr, Workload::signoff, Workload::yield})
    {
        const auto items = smallest_items(w, in);
        Trace trace{Clock::now()};
        const auto run = run_passes(w, in, items, a.seed, 0, &trace);
        failed += run.plain.failed + run.traced.failed;
        attempted += run.plain.attempted + run.traced.attempted;
        std::printf("smoke %-8s %zu items, %zu spans, %zu failed\n", workload_name(w), items.size(),
                    trace.spans().size(), run.plain.failed + run.traced.failed);
    }

    const auto all = all_items(Workload::pnr, in);
    const auto table1 = run_passes(Workload::table1, in, all, a.seed, 0, nullptr).plain;
    const auto pnr = run_passes(Workload::pnr, in, all, a.seed, 0, nullptr).plain;
    failed += table1.failed + pnr.failed;
    attempted += table1.attempted + pnr.attempted;
    std::uint64_t total = 0;
    for (const auto i : all)
    {
        const auto t = table1.first.at(i).area;
        const auto p = pnr.first.at(i).area;
        total += t;
        if (t != p)
        {
            std::printf("FAILED %s: frozen input lays out at %llu tiles, table1 at %llu\n",
                        in.circuits[i].name.c_str(), static_cast<unsigned long long>(p),
                        static_cast<unsigned long long>(t));
            ++failed;
        }
    }
    std::printf("frozen-input areas: %s, %llu tiles in total\n", failed == 0 ? "ok" : "MISMATCH",
                static_cast<unsigned long long>(total));
    print_result(failed == 0, attempted, failed,
                 {{"layout_tiles", static_cast<double>(total), "count"}});
    return failed == 0 ? 0 : 1;
}

/// Regenerates the committed inputs and expectations from this build: the
/// rewritten XAG of every Table-1 circuit as Verilog, the signoff tile
/// verdicts and the yield curves.
int freeze(const Args& a)
{
    const std::filesystem::path dir{a.freeze_dir};
    std::filesystem::create_directories(dir / "inputs");
    std::ostringstream expected;
    expected << "# Outputs of the flow at the commit that froze the inputs; regenerate with\n"
                "#   flowbench --freeze <dir>\n"
                "# gates <design> <gates of inputs/<design>.v>\n"
                "# tile  <design> <tile> <operational> <patterns correct> <patterns total>\n"
                "# yield <tile> <density per nm^2> <samples> <operational> <blocked>\n";
    for (const auto& bm : logic::table1_benchmarks())
    {
        const auto r = core::run_design_flow(bm.build());
        const auto verilog = io::to_verilog_string(r.rewritten, bm.name);
        std::ofstream{dir / "inputs" / (bm.name + ".v")} << verilog;
        expected << "gates " << bm.name << ' '
                 << io::read_verilog_string(verilog).num_gates() << '\n';
        const auto s = core::run_design_flow_verilog(verilog, flow_options(Workload::signoff));
        for (const auto& v : s.gate_validation)
        {
            expected << "tile " << bm.name << ' ' << v.name << ' ' << (v.operational ? 1 : 0) << ' '
                     << v.patterns_correct << ' ' << v.patterns_total << '\n';
        }
        std::printf("froze %s\n", bm.name.c_str());
    }
    for (const auto& t : validated_tiles())
    {
        const auto sweep = sweep_params();
        const auto r = phys::defect_yield_sweep(*t.design, phys::SimulationParameters{}, sweep);
        for (const auto& p : r.points)
        {
            expected << "yield " << t.name << ' ' << p.density_per_nm2 << ' ' << p.samples_evaluated
                     << ' ' << p.operational << ' ' << p.blocked << '\n';
        }
    }
    std::ofstream{dir / "expected.txt"} << expected.str();
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const auto process_start = Clock::now();
    try
    {
        const auto a = parse_args(argc, argv);
        if (!a.freeze_dir.empty())
        {
            return freeze(a);
        }
        if (a.smoke)
        {
            return run_smoke(a);
        }
        return run_workload(a, process_start);
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "flowbench: %s\n", e.what());
        return 2;
    }
}
