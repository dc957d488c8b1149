// perfbench_workloads: one run of one workload of the repository benchmark.
//
//   perfbench_workloads --workload table1|delta|serve --seed N --seconds S
//                    --trace 0|1 [--trace-dir DIR]
//
// Every workload drives the solver from outside, through the same public
// calls a user makes, on inputs generated from --seed, and checks every
// verdict against ground truth.  A workload runs in passes over a fixed
// amount of work, repeated until --seconds have elapsed and every reported
// quantile has enough samples (stats.hpp).  Each operation is timed right
// after a host-speed probe and its latency is calibrated by it (probe.hpp),
// then filed under one of two paths:
//
//   solve  the operation ran the engine on the whole formula
//          (table1: an instance; delta: a stateless cold solve;
//           serve: a cache miss);
//   reuse  the operation could answer from earlier work
//          (table1: the immediate repeat of the same instance through the
//           stateless library path, the control that must track `solve`;
//           delta: a session delta solve; serve: a cache hit).
//
// --trace 0 prints the end-to-end metrics.  --trace 1 measures half the
// time untraced and half traced, prints the per-layer metrics, the tracing
// overhead (traced minus untraced solve-path median), and writes the spans
// and counters of the traced half to DIR/trace-<workload>-<seed>.jsonl.
// The last stdout line is the JSON result; the exit code is non-zero when
// any operation failed or any verdict was wrong.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/base/rng.hpp"
#include "src/base/timer.hpp"
#include "src/cache/result_cache.hpp"
#include "src/circuit/families.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/obs/metrics.hpp"
#include "src/pec/pec_encoder.hpp"
#include "src/runtime/guard.hpp"
#include "src/service/client.hpp"
#include "src/service/http.hpp"
#include "src/service/server.hpp"
#include "probe.hpp"
#include "stats.hpp"

using namespace hqs;
using namespace perfbench;
namespace svc = hqs::service;

namespace {

/// Hard cap on one measurement phase; a traced run has two, and both stay
/// inside the 180 s run limit.
constexpr double kMaxPhaseSeconds = 75.0;
/// Set-up repeats per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Fewest passes a phase runs, so per-pass aggregates have a median.
constexpr std::size_t kMinPasses = 3;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream)
{
    return seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
}

std::size_t halfTheCores()
{
    return std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
}

// ================================================================ tracing

double nowUs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
        .count();
}

using Counters = std::map<std::string, double>;

/// Spans and counters of the traced phase, kept in memory and written once
/// at exit.  All spans of one operation share its op id.
class Tracer {
public:
    struct Span {
        std::uint64_t op, id, parent;
        std::string name;
        double startUs, durUs;
    };

    std::uint64_t newOp() { return nextOp_.fetch_add(1); }
    std::uint64_t newId() { return nextId_.fetch_add(1); }

    void record(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
    }
    void counters(std::uint64_t op, Counters c)
    {
        std::lock_guard<std::mutex> lock(mu_);
        counters_.emplace_back(op, std::move(c));
    }

    /// Per span name: summed duration and summed self time (duration minus
    /// the durations of its direct children), in microseconds.
    std::map<std::string, std::pair<double, double>> totalsByName() const
    {
        std::map<std::uint64_t, double> childUs;
        for (const Span& s : spans_) childUs[s.parent] += s.durUs;
        std::map<std::string, std::pair<double, double>> out;
        for (const Span& s : spans_) {
            auto& [dur, self] = out[s.name];
            dur += s.durUs;
            const auto it = childUs.find(s.id);
            self += s.durUs - (it == childUs.end() ? 0.0 : it->second);
        }
        return out;
    }

    bool write(const std::string& path) const
    {
        std::ofstream out(path);
        for (const Span& s : spans_) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"op\":%llu,\"span\":%llu,\"parent\":%llu,\"name\":\"%s\","
                          "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                          static_cast<unsigned long long>(s.op),
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent), s.name.c_str(),
                          s.startUs, s.durUs);
            out << buf;
        }
        for (const auto& [op, c] : counters_) {
            out << "{\"op\":" << op << ",\"counters\":{" << std::setprecision(15);
            bool first = true;
            for (const auto& [k, v] : c) {
                out << (first ? "" : ",") << "\"" << k << "\":" << v;
                first = false;
            }
            out << "}}\n";
        }
        return static_cast<bool>(out);
    }

private:
    std::atomic<std::uint64_t> nextOp_{1}, nextId_{1};
    std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::pair<std::uint64_t, Counters>> counters_;
};

/// RAII span; a no-op (no clock read) when tracing is off.
class SpanScope {
public:
    SpanScope(Tracer* t, std::uint64_t op, std::uint64_t parent, const char* name)
        : t_(t), op_(op), parent_(parent), name_(name)
    {
        if (t_) {
            id_ = t_->newId();
            start_ = nowUs();
        }
    }
    ~SpanScope()
    {
        if (t_) t_->record({op_, id_, parent_, name_, start_, nowUs() - start_});
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    std::uint64_t id() const { return id_; }

private:
    Tracer* t_;
    std::uint64_t op_, parent_, id_ = 0;
    const char* name_;
    double start_ = 0;
};

/// A child span whose duration the server reported (its wall_ms), placed
/// at the end of the client-side parent span.
void recordServerSpan(Tracer* t, std::uint64_t op, std::uint64_t parent, double endUs,
                      double wallMs)
{
    if (t)
        t->record({op, t->newId(), parent, "service.server", endUs - wallMs * 1e3, wallMs * 1e3});
}

/// The obs counters the per-layer metrics are built from.
const std::vector<std::pair<std::string, obs::MetricKind>>& counterSpecs()
{
    using K = obs::MetricKind;
    static const std::vector<std::pair<std::string, K>> specs = {
        {"phase.preprocess.us", K::Counter},  {"phase.sat_probe.us", K::Counter},
        {"phase.build_aig.us", K::Counter},   {"phase.select.us", K::Counter},
        {"phase.unit_pure.us", K::Counter},   {"phase.elim_exists.us", K::Counter},
        {"phase.elim_universal.us", K::Counter}, {"phase.fraig.us", K::Counter},
        {"phase.qbf.us", K::Counter},         {"hqs.elim.copies", K::Counter},
        {"hqs.elim.unit", K::Counter},        {"hqs.elim.pure", K::Counter},
        {"aig.opcache.hits", K::Counter},     {"aig.opcache.misses", K::Counter},
        {"aig.nodes.peak_live", K::Gauge},    {"sat.solves", K::Counter},
        {"cache.hit", K::Counter},            {"cache.miss", K::Counter},
        {"pool.queue_latency_us", K::Histogram},
    };
    return specs;
}

Counters readCounters(const obs::Registry& r)
{
    Counters c;
    for (const auto& [name, kind] : counterSpecs()) {
        const obs::MetricId id = obs::metric(name, kind);
        c[name] = static_cast<double>(r.value(id));
        if (kind == obs::MetricKind::Histogram)
            c[name + ".sum"] = static_cast<double>(r.histogramSum(id));
    }
    return c;
}

/// Solver-layer counters summed over the solve-path operations of a phase.
struct LayerTotals {
    Counters sum;
    double ops = 0;
    double latencyMs = 0;
    double peakLive = 0;

    void add(const Counters& c, double opCount, double opLatencyMs)
    {
        for (const auto& [k, v] : c) sum[k] += v;
        const auto it = c.find("aig.nodes.peak_live");
        if (it != c.end()) peakLive = std::max(peakLive, it->second);
        ops += opCount;
        latencyMs += opLatencyMs;
    }
    double perOp(const std::string& k) const { return ops > 0 ? get(k) / ops : 0; }
    double get(const std::string& k) const
    {
        const auto it = sum.find(k);
        return it == sum.end() ? 0 : it->second;
    }
};

// ============================================================ measurement

/// What one measurement phase collects.
struct Phase {
    Series solve{"solve"};
    Series reuse{"reuse"};
    std::vector<double> passSum, passGeomean; // over the solve path, per pass
    std::uint64_t attempted = 0, failed = 0, correct = 0;
    long solvedPerPass = -1;
    std::size_t passes = 0;
    double seconds = 0;         // summed timed windows, as measured
    double busySeconds = 0;     // time the operations took, calibrated
    std::vector<double> probes; // every probe time of the phase, ms
    std::vector<std::string> failures;

    void fail(const std::string& why)
    {
        ++failed;
        if (failures.size() < 20) failures.push_back(why);
    }
    /// Close a pass: @p solved operations answered correctly, @p solveMs the
    /// pass's calibrated solve-path latencies.
    void endPass(long solved, const std::vector<double>& solveMs)
    {
        if (solvedPerPass >= 0 && solved != solvedPerPass)
            fail("solved count changed between passes: " + std::to_string(solvedPerPass) +
                 " -> " + std::to_string(solved));
        if (solvedPerPass < 0) solvedPerPass = solved;
        double sum = 0, logSum = 0;
        for (double v : solveMs) {
            sum += v;
            logSum += std::log(std::max(v, 1e-6));
        }
        if (!solveMs.empty()) {
            passSum.push_back(sum);
            passGeomean.push_back(std::exp(logSum / static_cast<double>(solveMs.size())));
        }
        ++passes;
    }
    bool enough() const
    {
        return passes >= kMinPasses && solve.size() >= samplesNeeded(0.9) &&
               reuse.size() >= samplesNeeded(0.5);
    }
};

/// Per-layer values of one workload, filled by the workload (0 = layer not
/// on this workload's path).
using Layers = std::map<std::string, double>;

void solverLayers(const LayerTotals& t, Layers& out)
{
    const double us = 1e-3; // counter microseconds -> ms
    out["dqbf.preprocess_ms"] = t.perOp("phase.preprocess.us") * us;
    out["dqbf.sat_probe_ms"] = t.perOp("phase.sat_probe.us") * us;
    out["dqbf.elim_ms"] =
        (t.perOp("phase.elim_exists.us") + t.perOp("phase.elim_universal.us")) * us;
    out["dqbf.unit_pure_ms"] = t.perOp("phase.unit_pure.us") * us;
    out["dqbf.unit_pure_share"] =
        t.latencyMs > 0 ? t.get("phase.unit_pure.us") * us / t.latencyMs : 0;
    out["hqs.elim.copies"] = t.perOp("hqs.elim.copies");
    out["hqs.elim.unit_pure"] = t.perOp("hqs.elim.unit") + t.perOp("hqs.elim.pure");
    out["maxsat.select_ms"] = t.perOp("phase.select.us") * us;
    out["aig.build_ms"] = t.perOp("phase.build_aig.us") * us;
    out["aig.fraig_ms"] = t.perOp("phase.fraig.us") * us;
    out["aig.nodes.peak_live"] = t.peakLive;
    const double hits = t.get("aig.opcache.hits"), misses = t.get("aig.opcache.misses");
    out["aig.opcache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    out["qbf.backend_ms"] = t.perOp("phase.qbf.us") * us;
    out["qbf.backend_share"] = t.latencyMs > 0 ? t.get("phase.qbf.us") * us / t.latencyMs : 0;
    out["sat.solves"] = t.perOp("sat.solves");
    const double ch = t.get("cache.hit"), cm = t.get("cache.miss");
    out["cache.hit_ratio"] = ch + cm > 0 ? ch / (ch + cm) : 0;
    const double queued = t.get("pool.queue_latency_us");
    out["service.queue_wait_ms"] =
        queued > 0 ? t.get("pool.queue_latency_us.sum") / queued * us : 0;
}

// ================================================================ table1

/// The paper's Table I suite, scaled: every PEC family, SAT and UNSAT at
/// each width.  Widths run up to each family's frontier under the node
/// budget, so the large z4/comp/c432 instances memout on the live-node
/// count (deterministic) and never on the wall clock: the slowest decided
/// instance (c432 w5 SAT) takes about 0.5 s on a 4-core x86 VM, a tenth of
/// the limit.
struct WidthRange {
    Family family;
    unsigned lo, hi;
};
const WidthRange kTable1Widths[] = {
    {Family::Adder, 3, 8},     {Family::Bitcell, 3, 10}, {Family::Lookahead, 3, 10},
    {Family::PecXor, 3, 10},   {Family::Z4, 3, 8},       {Family::Comp, 3, 9},
    {Family::C432, 3, 7},
};
constexpr std::size_t kTable1NodeLimit = 20000;
constexpr double kTable1TimeoutSeconds = 5.0;

class Table1 {
public:
    explicit Table1(std::uint64_t seed) : seed_(seed) {}

    void setup()
    {
        for (const WidthRange& r : kTable1Widths) {
            setupProbes_.push_back(probeMs());
            for (unsigned w = r.lo; w <= r.hi; ++w)
                for (bool sat : {false, true}) {
                    const PecInstance inst = makeInstance(r.family, w, sat);
                    const PecEncoding enc = encodePec(inst);
                    suite_.push_back({inst.name, inst.expectedRealizable,
                                      toDqdimacsString(enc.formula.toParsed()), {}, {}, {}});
                }
        }
        // Warm-up: each family's smallest pair, untimed and unrecorded.
        for (std::size_t i = 0, k = 0; k < std::size(kTable1Widths); ++k) {
            setupProbes_.push_back(probeMs());
            solveOnce(suite_[i], nullptr, 0, "warmup", nullptr);
            setupProbes_.push_back(probeMs());
            solveOnce(suite_[i + 1], nullptr, 0, "warmup", nullptr);
            i += 2 * (kTable1Widths[k].hi - kTable1Widths[k].lo + 1);
        }
    }

    /// Probes taken during set-up; they calibrate setup_s.
    std::vector<double> setupProbes_;

    void pass(Phase& ph, Tracer* tr, LayerTotals& layers)
    {
        std::vector<std::size_t> order(suite_.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        Rng rng(mix(seed_, passes_++));
        for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

        long solved = 0;
        std::vector<double> solveMs;
        Timer window;
        for (std::size_t idx : order) {
            Instance& inst = suite_[idx];
            for (bool repeat : {false, true}) {
                const double probe = probeMs();
                Outcome o = solveOnce(inst, tr, tr ? tr->newOp() : 0,
                                      repeat ? "table1.repeat" : "table1.solve",
                                      tr ? &layers : nullptr);
                const double ms = calibrated(o.ms, probe);
                ++ph.attempted;
                ph.probes.push_back(probe);
                ph.busySeconds += ms / 1e3;
                (repeat ? ph.reuse : ph.solve).add(ms);
                if (!repeat) solveMs.push_back(ms);
                inst.ms.push_back(o.ms);
                if (!judge(inst, o, ph)) continue;
                if (o.verdict == SolveResult::Sat || o.verdict == SolveResult::Unsat) {
                    ++ph.correct;
                    if (!repeat) ++solved;
                }
            }
        }
        ph.seconds += window.elapsedSeconds();
        ph.endPass(solved, solveMs);
    }

    /// Per-instance verdict, decider and measured (uncalibrated) median, once
    /// per run.
    void printInstances() const
    {
        for (const Instance& inst : suite_) {
            std::printf("table1 %-20s expected=%-5s verdict=%-6s decider=%-12s median_ms=%.3f\n",
                        inst.name.c_str(), inst.expectSat ? "SAT" : "UNSAT",
                        toString(inst.verdict.value_or(SolveResult::Unknown)).c_str(),
                        inst.decider.c_str(), median(inst.ms));
        }
    }

private:
    struct Instance {
        std::string name;
        bool expectSat;
        std::string text;
        std::optional<SolveResult> verdict; // first timed verdict; later ones must match
        std::vector<double> ms;
        std::string decider;
    };
    struct Outcome {
        SolveResult verdict = SolveResult::Unknown;
        FailureInfo failure;
        std::string decidedBy;
        double ms = 0;
    };

    /// One `dqbf_solve` library-path solve: parse, then a guarded HQS run.
    Outcome solveOnce(const Instance& inst, Tracer* tr, std::uint64_t op, const char* span,
                      LayerTotals* layers)
    {
        Outcome o;
        std::optional<obs::MetricScope> scope;
        if (layers) scope.emplace();
        Timer t;
        {
            SpanScope root(tr, op, 0, span);
            std::optional<ParsedQdimacs> parsed;
            {
                SpanScope s(tr, op, root.id(), "cnf.parse");
                parsed = parseDqdimacsString(inst.text);
            }
            SpanScope guard(tr, op, root.id(), "runtime.guard");
            GuardOptions g;
            g.deadline = Deadline::in(kTable1TimeoutSeconds);
            const GuardedOutcome out = runGuarded(g, [&](const Deadline& dl) {
                SpanScope body(tr, op, guard.id(), "dqbf.solve");
                HqsOptions opts;
                opts.deadline = dl;
                opts.nodeLimit = kTable1NodeLimit;
                HqsSolver solver(opts);
                const SolveResult r = solver.solve(DqbfFormula::fromParsed(*parsed));
                o.decidedBy = solver.stats().decidedBy;
                return r;
            });
            o.verdict = out.result;
            o.failure = out.failure;
        }
        o.ms = t.elapsedMilliseconds();
        if (layers) {
            const Counters c = readCounters(scope->registry());
            layers->add(c, 1, o.ms);
            if (tr) tr->counters(op, c);
        }
        return o;
    }

    /// Ground truth: SAT/UNSAT must match the construction, a memout is the
    /// node budget's deterministic answer, anything else rode a rail or
    /// failed.  Every verdict must equal the instance's first one.
    bool judge(Instance& inst, const Outcome& o, Phase& ph)
    {
        const bool decided = o.verdict == SolveResult::Sat || o.verdict == SolveResult::Unsat;
        if (!inst.verdict) {
            inst.verdict = o.verdict;
            inst.decider = o.verdict == SolveResult::Memout ? "node-budget" : o.decidedBy;
        }
        if (o.failure) {
            ph.fail(inst.name + ": " + toString(o.failure.kind) + " " + o.failure.what);
            return false;
        }
        if (decided && (o.verdict == SolveResult::Sat) != inst.expectSat) {
            ph.fail(inst.name + ": wrong verdict " + toString(o.verdict));
            return false;
        }
        if (!decided && o.verdict != SolveResult::Memout) {
            ph.fail(inst.name + ": " + toString(o.verdict) + " (wall-clock rail)");
            return false;
        }
        if (o.verdict != *inst.verdict) {
            ph.fail(inst.name + ": verdict flipped " + toString(*inst.verdict) + " -> " +
                    toString(o.verdict));
            return false;
        }
        return true;
    }

    std::uint64_t seed_, passes_ = 0;
    std::vector<Instance> suite_;
};

// ================================================================= delta

/// Seeded multi-component delta families.  Component c of a family is an
/// XOR chain over n universals: aux_1 = u_1 ^ u_2, aux_k = aux_{k-1} ^
/// u_{k+1}, with exactly c of the n-1 definitions flipped to XNOR.  Each
/// aux lacks one universal it does not need in its dependency set (a
/// random one), so the dependency sets are incomparable and the formula is
/// genuine DQBF; every component is SAT.  The XNOR count is invariant under
/// variable renaming (XOR clauses carry an odd number of negations, XNOR
/// clauses an even one), so the components are pairwise non-isomorphic
/// and the session memo cannot fold them together.  A fifth component, a
/// trivially satisfiable implication chain whose length encodes the
/// family's index, makes every family (and so every cold key) new within a
/// run without changing the solve cost.
constexpr int kDeltaComponents = 4;
constexpr int kDeltaMembers = 8;
constexpr int kDeltaMinUniversals = 6, kDeltaMaxUniversals = 6;

struct DeltaComponent {
    int n = 0, offset = 0;
    std::vector<bool> xnor;   // definition k = 1..n-1 at index k-1
    std::vector<int> missing; // aux k = 1..n-2 at index k-1: universal it lacks

    int u(int j) const { return offset + j; }
    int aux(int k) const { return offset + n + k; }
    int vars() const { return 2 * n - 1; }
};

struct DeltaMember {
    int component = 0;
    std::string clauses; // DIMACS, "l l l 0 l l l 0"
    int clauseCount = 0;
    bool expectSat = true;
};

struct DeltaFamily {
    std::vector<DeltaComponent> comps;
    std::vector<DeltaMember> members;
    std::string prefix, matrix;
    int vars = 0, clauses = 0;

    std::string text(const DeltaMember* m) const
    {
        std::string body = prefix + matrix;
        int n = clauses;
        if (m) {
            body += m->clauses + "\n";
            n += m->clauseCount;
        }
        return "p cnf " + std::to_string(vars) + " " + std::to_string(n) + "\n" + body;
    }
};

std::string lit(int v, bool neg) { return (neg ? "-" : "") + std::to_string(v); }

DeltaFamily makeDeltaFamily(std::uint64_t seed, std::uint64_t index)
{
    Rng rng(seed);
    DeltaFamily f;
    int offset = 0;
    for (int c = 0; c < kDeltaComponents; ++c) {
        DeltaComponent comp;
        comp.n = kDeltaMinUniversals +
                 static_cast<int>(rng.below(kDeltaMaxUniversals - kDeltaMinUniversals + 1));
        comp.offset = offset;
        comp.xnor.assign(comp.n - 1, false);
        for (int placed = 0; placed < c;) {
            const std::size_t k = rng.below(comp.n - 1);
            if (!comp.xnor[k]) comp.xnor[k] = true, ++placed;
        }
        for (int k = 1; k <= comp.n - 2; ++k) comp.missing.push_back(k + 2);
        offset += comp.vars();
        f.comps.push_back(comp);
    }
    const int chain = 2 + static_cast<int>(index);
    f.vars = offset + chain;

    f.prefix = "a";
    for (const DeltaComponent& comp : f.comps)
        for (int j = 1; j <= comp.n; ++j) f.prefix += " " + std::to_string(comp.u(j));
    f.prefix += " 0\n";
    for (const DeltaComponent& comp : f.comps) {
        for (int k = 1; k <= comp.n - 1; ++k) {
            f.prefix += "d " + std::to_string(comp.aux(k));
            for (int j = 1; j <= comp.n; ++j)
                if (k == comp.n - 1 || j != comp.missing[k - 1])
                    f.prefix += " " + std::to_string(comp.u(j));
            f.prefix += " 0\n";
            // aux_k = x ^ y (XNOR when flipped), as four clauses.
            const int z = comp.aux(k), x = k == 1 ? comp.u(1) : comp.aux(k - 1),
                      y = comp.u(k + 1);
            const bool flip = comp.xnor[k - 1];
            f.matrix += lit(x, true) + " " + lit(y, true) + " " + lit(z, !flip) + " 0\n";
            f.matrix += lit(x, false) + " " + lit(y, false) + " " + lit(z, !flip) + " 0\n";
            f.matrix += lit(x, false) + " " + lit(y, true) + " " + lit(z, flip) + " 0\n";
            f.matrix += lit(x, true) + " " + lit(y, false) + " " + lit(z, flip) + " 0\n";
            f.clauses += 4;
        }
    }
    f.prefix += "e";
    for (int i = 1; i <= chain; ++i) f.prefix += " " + std::to_string(offset + i);
    f.prefix += " 0\n";
    for (int i = 1; i < chain; ++i, ++f.clauses)
        f.matrix += lit(offset + i, true) + " " + lit(offset + i + 1, false) + " 0\n";

    // Member m touches component m % kDeltaComponents.  Two of the eight
    // are UNSAT: they tie aux_k to a universal u_j outside aux_k's function
    // (j > k+1), which no Skolem function can meet.  The others weaken two
    // definition clauses of aux_k by a universal literal, which keeps the
    // member SAT.  The two members on one component use different k; an
    // aux's place in its chain survives any renaming, so no two members'
    // effective formulas are isomorphic and every cold key is new.
    std::set<std::pair<int, int>> used; // (component, k)
    const int unsatA = static_cast<int>(rng.below(kDeltaComponents));
    const int unsatB = kDeltaComponents + static_cast<int>(rng.below(kDeltaComponents));
    for (int m = 0; m < kDeltaMembers;) {
        DeltaMember mem;
        mem.component = m % kDeltaComponents;
        const DeltaComponent& comp = f.comps[mem.component];
        mem.expectSat = m != unsatA && m != unsatB;
        int k = 0;
        if (!mem.expectSat) {
            k = 1 + static_cast<int>(rng.below(comp.n - 2));
            const int j = k + 2 + static_cast<int>(rng.below(comp.n - k - 1));
            mem.clauses = lit(comp.aux(k), true) + " " + lit(comp.u(j), false) + " 0 " +
                          lit(comp.aux(k), false) + " " + lit(comp.u(j), true) + " 0";
        } else {
            k = 1 + static_cast<int>(rng.below(comp.n - 1));
            const int z = comp.aux(k), x = k == 1 ? comp.u(1) : comp.aux(k - 1),
                      y = comp.u(k + 1);
            const bool flip = comp.xnor[k - 1];
            // A widening universal that is not in the definition.
            int j = 1 + static_cast<int>(rng.below(comp.n));
            while (j == k + 1 || (k == 1 && j == 1)) j = 1 + static_cast<int>(rng.below(comp.n));
            const std::string w = lit(comp.u(j), rng.flip());
            mem.clauses = lit(x, true) + " " + lit(y, true) + " " + lit(z, !flip) + " " + w +
                          " 0 " + lit(x, false) + " " + lit(y, true) + " " + lit(z, flip) +
                          " " + w + " 0";
        }
        mem.clauseCount = 2;
        if (!used.emplace(mem.component, k).second) continue;
        f.members.push_back(mem);
        ++m;
    }
    return f;
}

/// One JSONL exchange.
bool exchange(svc::BlockingClient& client, const std::string& row, std::string& reply)
{
    return client.sendAll(row) && client.readLine(reply);
}

class Delta {
public:
    explicit Delta(std::uint64_t seed) : seed_(seed) {}
    ~Delta()
    {
        client_.close();
        if (service_) service_->stop();
    }
    Delta(const Delta&) = delete;
    Delta& operator=(const Delta&) = delete;

    void setup()
    {
        svc::ServiceOptions opts;
        opts.enableJsonl = true;
        opts.maxInflight = halfTheCores();
        opts.defaultTimeoutSeconds = 60.0;
        opts.resultCache = std::make_shared<cache::ResultCache>();
        service_ = std::make_unique<svc::SolverService>(opts);
        std::string error;
        if (!service_->start(&error)) throw std::runtime_error("delta: " + error);
        if (!client_.connect("127.0.0.1", service_->jsonlPort(), &error))
            throw std::runtime_error("delta: " + error);
        std::string reply;
        if (!exchange(client_, svc::buildJsonlHandshake(2), reply) ||
            reply.find("\"v2\"") == std::string::npos)
            throw std::runtime_error("delta: v2 handshake failed: " + reply);
        // Warm-up: the first family, untimed; timed passes take the next ones.
        Phase scratch;
        LayerTotals unused;
        pass(scratch, nullptr, unused);
        if (scratch.failed) throw std::runtime_error("delta warm-up: " + scratch.failures[0]);
        setupProbes_ = std::move(scratch.probes);
    }

    /// Probes taken during set-up (the warm-up's); they calibrate setup_s.
    std::vector<double> setupProbes_;

    void pass(Phase& ph, Tracer* tr, LayerTotals& layers)
    {
        runFamily(nextFamily(), ph, tr, layers);
    }

    const LayerTotals& sessionTotals() const { return session_; }
    double overheadMs() const { return requests_ > 0 ? overheadMs_ / requests_ : 0; }
    double parseMs() const { return parseOps_ > 0 ? parseMs_ / parseOps_ : 0; }

private:
    DeltaFamily nextFamily()
    {
        const std::uint64_t i = passes_++;
        return makeDeltaFamily(mix(seed_, i), i);
    }

    struct Reply {
        bool transport = false;
        std::string row, verdict;
        double ms = 0, wallMs = 0;
    };

    /// One timed request; in the traced phase the global registry is reset
    /// first, so afterwards it holds exactly this request's counters (the
    /// connection is the only client and runs one request at a time).
    Reply request(const std::string& row, Tracer* tr, std::uint64_t op, const char* span,
                  Counters* counters)
    {
        Reply r;
        if (counters) obs::globalRegistry().reset();
        Timer t;
        {
            SpanScope root(tr, op, 0, span);
            r.transport = exchange(client_, row, r.row);
            r.ms = t.elapsedMilliseconds();
            svc::jsonStringField(r.row, "result", r.verdict);
            svc::jsonNumberField(r.row, "wall_ms", r.wallMs);
            recordServerSpan(tr, op, root.id(), nowUs(), r.wallMs);
        }
        if (counters) *counters = readCounters(obs::globalRegistry());
        if (tr) {
            ++requests_;
            overheadMs_ += r.ms - r.wallMs;
        }
        return r;
    }

    void runFamily(const DeltaFamily& fam, Phase& ph, Tracer* tr, LayerTotals& layers)
    {
        Timer window;
        std::string sid;
        {
            // Session establishment: open the base and solve it once, so
            // every timed delta op re-solves only its touched component.
            svc::SolveRequestOptions open;
            open.op = "open";
            Reply r = request(svc::buildJsonlSolveRequest("open", fam.text(nullptr), open),
                              nullptr, 0, "", nullptr);
            if (!r.transport || !svc::jsonStringField(r.row, "session", sid))
                throw std::runtime_error("delta: open failed: " + r.row);
            svc::SolveRequestOptions solve;
            solve.op = "solve";
            solve.session = sid;
            r = request(svc::buildJsonlSolveRequest("base", "", solve), nullptr, 0, "", nullptr);
            if (!r.transport || r.verdict != "SAT")
                throw std::runtime_error("delta: base solve failed: " + r.row);
        }

        long solved = 0;
        std::vector<double> coldMs;
        for (int m = 0; m < kDeltaMembers; ++m) {
            const DeltaMember& mem = fam.members[m];
            const std::string expect = mem.expectSat ? "SAT" : "UNSAT";
            const std::string text = fam.text(&mem);

            const std::uint64_t coldOp = tr ? tr->newOp() : 0;
            Counters cc;
            svc::SolveRequestOptions cold;
            double probe = probeMs();
            Reply c = request(svc::buildJsonlSolveRequest("cold-" + std::to_string(m), text, cold),
                              tr, coldOp, "delta.cold", tr ? &cc : nullptr);
            const double coldCal = calibrated(c.ms, probe);
            ++ph.attempted;
            ph.probes.push_back(probe);
            ph.busySeconds += coldCal / 1e3;
            ph.solve.add(coldCal);
            coldMs.push_back(coldCal);
            bool cached = false;
            svc::jsonBoolField(c.row, "cached", cached);
            if (!c.transport) throw std::runtime_error("delta: transport failure");
            if (c.verdict != expect) {
                ph.fail("delta cold member " + std::to_string(m) + ": got '" + c.verdict +
                        "' expected " + expect + " " + c.row.substr(0, 200));
            } else if (cached) {
                ph.fail("delta cold member " + std::to_string(m) + " hit the cache");
            } else {
                ++ph.correct;
                ++solved;
            }
            if (tr) {
                layers.add(cc, 1, c.ms);
                tr->counters(coldOp, cc);
                // The parse layer runs inside the service; time it on the
                // same text, outside the request, under the same op id.
                const double t0 = nowUs();
                parseDqdimacsString(text);
                const double dur = nowUs() - t0;
                tr->record({coldOp, tr->newId(), 0, "cnf.parse", t0, dur});
                parseMs_ += dur / 1e3;
                ++parseOps_;
            }

            const std::uint64_t sessOp = tr ? tr->newOp() : 0;
            Counters sc;
            svc::SolveRequestOptions delta;
            delta.op = "delta";
            delta.session = sid;
            if (m > 0) delta.retractGroup = "m" + std::to_string(m - 1);
            delta.addGroup = "m" + std::to_string(m);
            delta.deltaClauses = mem.clauses;
            probe = probeMs();
            Reply s = request(svc::buildJsonlSolveRequest("delta-" + std::to_string(m), "", delta),
                              tr, sessOp, "delta.session", tr ? &sc : nullptr);
            const double sessionCal = calibrated(s.ms, probe);
            ++ph.attempted;
            ph.probes.push_back(probe);
            ph.busySeconds += sessionCal / 1e3;
            ph.reuse.add(sessionCal);
            if (!s.transport) throw std::runtime_error("delta: transport failure");
            if (s.verdict.empty() || s.verdict != c.verdict) {
                ph.fail("delta session member " + std::to_string(m) + ": got '" + s.verdict +
                        "', cold said '" + c.verdict + "' " + s.row.substr(0, 200));
            } else {
                ++ph.correct;
                ++solved;
            }
            if (tr) {
                double comps = 0, reused = 0, saved = 0;
                svc::jsonNumberField(s.row, "components", comps);
                svc::jsonNumberField(s.row, "reused", reused);
                svc::jsonNumberField(s.row, "cone_nodes_saved", saved);
                sc["session.components"] = comps;
                sc["session.reused"] = reused;
                sc["session.cone_nodes_saved"] = saved;
                sc["session.server_ms"] = s.wallMs;
                session_.add(sc, 1, s.ms);
                tr->counters(sessOp, sc);
            }
        }

        svc::SolveRequestOptions close;
        close.op = "close";
        close.session = sid;
        request(svc::buildJsonlSolveRequest("close", "", close), nullptr, 0, "", nullptr);
        ph.seconds += window.elapsedSeconds();
        ph.endPass(solved, coldMs);
    }

    std::uint64_t seed_, passes_ = 0;
    std::unique_ptr<svc::SolverService> service_;
    svc::BlockingClient client_;
    LayerTotals session_;
    double requests_ = 0, overheadMs_ = 0, parseMs_ = 0, parseOps_ = 0;
};

// ================================================================= serve

/// Small PEC instances for the serving pool: cheap enough that the solver
/// does little work per miss (each solves in well under 0.1 s; comp and
/// c432 with three boxes do not, so they keep two), distinct enough
/// (family, width, box count, polarity) that every pool entry has its own
/// canonical key.
struct ServeCandidate {
    Family family;
    unsigned lo, hi, maxBoxes;
};
const ServeCandidate kServeCandidates[] = {
    {Family::Adder, 3, 6, 3},   {Family::Bitcell, 3, 10, 3}, {Family::Lookahead, 3, 7, 3},
    {Family::PecXor, 4, 10, 3}, {Family::Comp, 3, 6, 2},     {Family::Z4, 3, 4, 2},
    {Family::C432, 3, 3, 2},
};
constexpr std::uint64_t kServeMixSeed = 2015;
constexpr std::size_t kServeRequestsPerPass = 1000;

class Serve {
public:
    explicit Serve(std::uint64_t seed) : seed_(seed) {}
    ~Serve()
    {
        clients_.clear();
        if (service_) service_->stop();
    }
    Serve(const Serve&) = delete;
    Serve& operator=(const Serve&) = delete;

    void setup()
    {
        std::vector<PoolEntry> candidates;
        std::set<std::string> seen;
        for (const ServeCandidate& c : kServeCandidates)
            for (unsigned w = c.lo; w <= c.hi; ++w)
                for (unsigned boxes = 2; boxes <= c.maxBoxes; ++boxes)
                    for (bool sat : {false, true}) {
                        const PecInstance inst = makeInstance(c.family, w, sat, boxes);
                        std::string text = toDqdimacsString(encodePec(inst).formula.toParsed());
                        if (seen.insert(text).second)
                            candidates.push_back({inst.name + "_b" + std::to_string(boxes),
                                                  inst.expectedRealizable ? "SAT" : "UNSAT",
                                                  std::move(text)});
                    }
        // A fixed traffic mix: which instance is popular does not depend on
        // the seed (a popular large instance makes every hit dearer), only
        // the request sequence drawn from the mix does.
        Rng rng(kServeMixSeed);
        for (std::size_t i = candidates.size(); i > 1; --i)
            std::swap(candidates[i - 1], candidates[rng.below(i)]);
        pool_ = std::move(candidates);

        // Zipf(1) over pool ranks.
        double total = 0;
        for (std::size_t r = 1; r <= pool_.size(); ++r) {
            total += 1.0 / static_cast<double>(r);
            cdf_.push_back(total);
        }
        for (double& v : cdf_) v /= total;

        svc::ServiceOptions opts;
        opts.enableJsonl = false;
        opts.maxInflight = halfTheCores();
        opts.defaultTimeoutSeconds = 30.0;
        // Every pass starts from an empty cache: the benchmark owns the
        // cache clock and moves it past the TTL between passes.
        cache::CacheConfig cfg;
        cfg.ttlSeconds = 3600;
        cfg.clock = [this] { return clockMs_.load(std::memory_order_relaxed); };
        opts.resultCache = std::make_shared<cache::ResultCache>(cfg);
        service_ = std::make_unique<svc::SolverService>(opts);
        std::string error;
        if (!service_->start(&error)) throw std::runtime_error("serve: " + error);
        clients_.resize(halfTheCores());
        for (svc::BlockingClient& c : clients_)
            if (!c.connect("127.0.0.1", service_->httpPort(), &error))
                throw std::runtime_error("serve: " + error);

        Phase scratch;
        LayerTotals unused;
        pass(scratch, nullptr, unused);
        if (scratch.failed) throw std::runtime_error("serve warm-up: " + scratch.failures[0]);
        setupProbes_ = std::move(scratch.probes);
    }

    /// Probes taken during set-up (the warm-up's); they calibrate setup_s.
    std::vector<double> setupProbes_;

    void pass(Phase& ph, Tracer* tr, LayerTotals& layers)
    {
        runPass(mix(seed_, passes_++), ph, tr, layers);
    }

    double hitServerMs() const { return hits_ > 0 ? hitServerMs_ / hits_ : 0; }
    double overheadMs() const { return requests_ > 0 ? overheadMs_ / requests_ : 0; }
    double solvesPerMiss() const { return missedKeys_ > 0 ? misses_ / missedKeys_ : 0; }
    double parseMs() const { return misses_ > 0 ? parseMs_ / misses_ : 0; }

    /// Parse cost of each pool instance (the parse layer runs inside the
    /// service, so it is timed on the same texts outside the requests).
    void measureParse(Tracer* tr)
    {
        parseEach_.clear();
        const std::uint64_t op = tr->newOp();
        for (const PoolEntry& e : pool_) {
            std::vector<double> us;
            for (int i = 0; i < 5; ++i) {
                const double t0 = nowUs();
                parseDqdimacsString(e.text);
                us.push_back(nowUs() - t0);
                tr->record({op, tr->newId(), 0, "cnf.parse", t0, us.back()});
            }
            parseEach_.push_back(median(us) / 1e3);
        }
    }

private:
    struct PoolEntry {
        std::string name, expect, text;
    };
    struct Sample {
        std::size_t idx;
        double probe, ms, wallMs;
        bool cached, ok;
        std::string error;
    };

    void runPass(std::uint64_t passSeed, Phase& ph, Tracer* tr, LayerTotals& layers)
    {
        Rng rng(passSeed);
        std::vector<std::size_t> seq(kServeRequestsPerPass);
        for (std::size_t& s : seq)
            s = static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform()) -
                                         cdf_.begin());
        clockMs_.fetch_add(10'000'000, std::memory_order_relaxed); // expire every entry
        const std::uint64_t passOp = tr ? tr->newOp() : 0;
        if (tr) obs::globalRegistry().reset();

        std::atomic<std::size_t> next{0};
        std::vector<std::vector<Sample>> perClient(clients_.size());
        Timer window;
        std::vector<std::thread> threads;
        for (std::size_t ci = 0; ci < clients_.size(); ++ci)
            threads.emplace_back([&, ci] {
                svc::BlockingClient& client = clients_[ci];
                while (true) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= seq.size()) break;
                    const PoolEntry& e = pool_[seq[i]];
                    const std::uint64_t op = tr ? tr->newOp() : 0;
                    // The probe doubles as the client's think time.
                    Sample s{seq[i], probeMs(), 0, 0, false, false, {}};
                    Timer t;
                    {
                        SpanScope root(tr, op, 0, "serve.request");
                        svc::HttpResponseMsg rsp;
                        const bool got =
                            (client.connected() ||
                             client.connect("127.0.0.1", service_->httpPort())) &&
                            client.sendAll(svc::buildHttpSolveRequest(e.text, {}, true)) &&
                            client.readResponse(rsp);
                        // A failed or server-closed exchange drops the
                        // connection; the next request reconnects, so one
                        // failure stays one failed operation.
                        const std::string* conn = got ? rsp.header("connection") : nullptr;
                        if (!got || (conn && conn->find("close") != std::string::npos))
                            client.close();
                        s.ms = t.elapsedMilliseconds();
                        std::string verdict;
                        if (!got) {
                            s.error = "transport failure";
                        } else if (rsp.status != 200) {
                            s.error = "HTTP " + std::to_string(rsp.status);
                        } else {
                            svc::jsonStringField(rsp.body, "result", verdict);
                            svc::jsonNumberField(rsp.body, "wall_ms", s.wallMs);
                            svc::jsonBoolField(rsp.body, "cached", s.cached);
                            s.ok = verdict == e.expect;
                            if (!s.ok) s.error = "got '" + verdict + "' expected " + e.expect;
                        }
                        recordServerSpan(tr, op, root.id(), nowUs(), s.wallMs);
                    }
                    perClient[ci].push_back(std::move(s));
                }
            });
        for (std::thread& t : threads) t.join();
        const double windowSeconds = window.elapsedSeconds();
        ph.seconds += windowSeconds;

        long solved = 0;
        std::vector<double> missMs, passProbes;
        std::set<std::size_t> missedKeys;
        for (const std::vector<Sample>& samples : perClient)
            for (const Sample& s : samples) {
                ++ph.attempted;
                ph.probes.push_back(s.probe);
                passProbes.push_back(s.probe);
                const double ms = calibrated(s.ms, s.probe);
                (s.cached ? ph.reuse : ph.solve).add(ms);
                if (!s.cached) {
                    missMs.push_back(ms);
                    missedKeys.insert(s.idx);
                }
                if (!s.ok) {
                    ph.fail("serve " + pool_[s.idx].name + ": " + s.error);
                    continue;
                }
                ++ph.correct;
                ++solved;
                if (tr) {
                    ++requests_;
                    overheadMs_ += s.ms - s.wallMs;
                    if (s.cached) {
                        ++hits_;
                        hitServerMs_ += s.wallMs;
                    } else {
                        parseMs_ += parseEach_.empty() ? 0 : parseEach_[s.idx];
                    }
                }
            }
        // Requests overlap, so the pass's busy time is its window, calibrated
        // by the pass's median probe.
        ph.busySeconds += calibrated(windowSeconds, median(passProbes));
        if (tr) {
            const Counters c = readCounters(obs::globalRegistry());
            double missLatency = 0;
            for (const std::vector<Sample>& samples : perClient)
                for (const Sample& s : samples)
                    if (!s.cached) missLatency += s.ms;
            layers.add(c, static_cast<double>(missMs.size()), missLatency);
            tr->counters(passOp, c);
            misses_ += static_cast<double>(missMs.size());
            missedKeys_ += static_cast<double>(missedKeys.size());
        }
        ph.endPass(solved, missMs);
    }

    std::uint64_t seed_, passes_ = 0;
    std::vector<PoolEntry> pool_;
    std::vector<double> cdf_, parseEach_;
    std::atomic<std::int64_t> clockMs_{0};
    std::unique_ptr<svc::SolverService> service_;
    std::vector<svc::BlockingClient> clients_;
    double hits_ = 0, hitServerMs_ = 0, requests_ = 0, overheadMs_ = 0;
    double misses_ = 0, missedKeys_ = 0, parseMs_ = 0;
};

// ================================================================ report

/// Per-layer metrics: name, unit, and the end-to-end metric a change to
/// that layer should move (workload in brackets).
struct LayerSpec {
    const char* name;
    const char* unit;
    const char* target;
};
const LayerSpec kLayerSpecs[] = {
    {"cnf.parse_ms", "ms", "solve_ms.geomean[table1], solve_ms.p50[serve]"},
    {"guard.overhead_ms", "ms", "solve_ms.geomean[table1]"},
    {"dqbf.preprocess_ms", "ms", "solve_ms.sum[table1]"},
    {"dqbf.sat_probe_ms", "ms", "solve_ms.sum[table1]"},
    {"dqbf.elim_ms", "ms", "solve_ms.sum[table1]"},
    {"dqbf.unit_pure_ms", "ms", "solve_ms.p50[delta] (not table1)"},
    {"dqbf.unit_pure_share", "ratio", "solve_ms.p50[delta] (not table1)"},
    {"hqs.elim.copies", "count", "solve_ms.sum[table1]"},
    {"hqs.elim.unit_pure", "count", "solve_ms.p50[delta]"},
    {"maxsat.select_ms", "ms", "solve_ms.geomean[table1]"},
    {"aig.build_ms", "ms", "solve_ms.sum[table1], solve_ms.p50[delta]"},
    {"aig.fraig_ms", "ms", "solve_ms.sum[table1], solve_ms.p50[delta]"},
    {"aig.nodes.peak_live", "count", "solve_ms.sum[table1], solve_ms.p50[delta]"},
    {"aig.opcache.hit_ratio", "ratio", "solve_ms.sum[table1], solve_ms.p50[delta]"},
    {"qbf.backend_ms", "ms", "solve_ms.sum[table1]"},
    {"qbf.backend_share", "ratio", "solve_ms.sum[table1]"},
    {"sat.solves", "count", "solve_ms.sum[table1]"},
    {"cache.hit_ratio", "ratio", "rps[serve], reuse_ms.p50[serve]"},
    {"cache.hit_server_ms", "ms", "rps[serve], reuse_ms.p50[serve]"},
    {"service.overhead_ms", "ms", "reuse_ms.p50[serve], rps[serve], reuse_ms.p50[delta]"},
    {"service.queue_wait_ms", "ms", "reuse_ms.p50[serve], rps[serve]"},
    {"service.solves_per_miss", "ratio", "rps[serve], solve_ms.p90[serve]"},
    {"session.server_ms", "ms", "reuse_ms.p50[delta]"},
    {"session.reuse_ratio", "ratio", "reuse_ms.p50[delta]"},
    {"session.cone_nodes_saved", "count", "reuse_ms.p50[delta]"},
    {"trace.overhead_ms", "ms", "(traced minus untraced solve_ms.p50)"},
    {"trace.overhead_share", "ratio", "(trace.overhead_ms / untraced solve_ms.p50)"},
};

double peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void printResult(bool correct, const Phase& ph, const Report& r)
{
    std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(ph.attempted) +
                      ",\"failed\":" + std::to_string(ph.failed) + ",\"metrics\":{";
    bool first = true;
    for (const std::string& name : r.names()) {
        const Metric& m = r.at(name);
        out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + jsonNumber(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::cout << out << std::endl;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceDir = ".";
};

bool parseArgs(int argc, char** argv, Args& a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        try {
            std::size_t pos = 0;
            if (k == "--workload") {
                a.workload = v;
                haveWorkload = true;
            } else if (k == "--seed") {
                a.seed = std::stoull(v, &pos);
                haveSeed = pos == v.size();
            } else if (k == "--seconds") {
                a.seconds = std::stod(v, &pos);
                haveSeconds = pos == v.size() && a.seconds > 0 && a.seconds <= 60;
            } else if (k == "--trace") {
                haveTrace = v == "0" || v == "1";
                a.trace = v == "1";
            } else if (k == "--trace-dir") {
                a.traceDir = v;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds && haveTrace &&
           (a.workload == "table1" || a.workload == "delta" || a.workload == "serve");
}

/// Set up @p kSetupRepeats times (keeping the last), then measure.  Each
/// set-up is calibrated by the median of the probes taken during it.
template <class W>
int run(const Args& a)
{
    std::vector<double> setupSeconds;
    std::unique_ptr<W> w;
    for (int i = 0; i < kSetupRepeats; ++i) {
        w.reset();
        Timer t;
        w = std::make_unique<W>(a.seed);
        w->setup();
        setupSeconds.push_back(calibrated(t.elapsedSeconds(), median(w->setupProbes_)));
    }

    auto measure = [&](Phase& ph, double seconds, Tracer* tr, LayerTotals& layers) {
        Timer t;
        do {
            w->pass(ph, tr, layers);
        } while ((t.elapsedSeconds() < seconds || !ph.enough()) &&
                 t.elapsedSeconds() < kMaxPhaseSeconds);
    };

    Phase plain;
    LayerTotals noLayers;
    measure(plain, a.trace ? a.seconds / 2 : a.seconds, nullptr, noLayers);

    Report r;
    Phase traced;
    if (!a.trace) {
        r.add("setup_s", median(setupSeconds), "s");
        r.add("solved", static_cast<double>(plain.solvedPerPass), "count");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("rps",
              plain.busySeconds > 0 ? static_cast<double>(plain.correct) / plain.busySeconds : 0,
              "1/s");
        r.addQuantile("solve_ms", "p50", plain.solve, 0.5);
        r.addQuantile("solve_ms", "p90", plain.solve, 0.9);
        r.add("solve_ms.sum", median(plain.passSum), "ms");
        r.add("solve_ms.geomean", median(plain.passGeomean), "ms");
        // No reuse_ms.p90: the tail of the sub-millisecond reuse paths is set
        // by the host's thread wake-ups (it quadruples when the host is
        // contended while the p50 moves 10-30%), too unsteady to bound.
        r.addQuantile("reuse_ms", "p50", plain.reuse, 0.5);
        if constexpr (std::is_same_v<W, Table1>) w->printInstances();
    } else {
        Tracer tracer;
        if constexpr (std::is_same_v<W, Serve>) w->measureParse(&tracer);
        LayerTotals layers;
        measure(traced, a.seconds / 2, &tracer, layers);

        Layers l;
        for (const LayerSpec& s : kLayerSpecs) l[s.name] = 0;
        solverLayers(layers, l);
        const auto spans = tracer.totalsByName();
        if constexpr (std::is_same_v<W, Table1>) {
            const double ops = static_cast<double>(traced.attempted);
            l["cnf.parse_ms"] = spans.at("cnf.parse").first / 1e3 / ops;
            l["guard.overhead_ms"] = spans.at("runtime.guard").second / 1e3 / ops;
        } else if constexpr (std::is_same_v<W, Delta>) {
            const LayerTotals& s = w->sessionTotals();
            const double comps = s.get("session.components");
            l["cnf.parse_ms"] = w->parseMs();
            l["service.overhead_ms"] = w->overheadMs();
            l["session.server_ms"] = s.perOp("session.server_ms");
            l["session.reuse_ratio"] = comps > 0 ? s.get("session.reused") / comps : 0;
            l["session.cone_nodes_saved"] = s.perOp("session.cone_nodes_saved");
        } else {
            l["cnf.parse_ms"] = w->parseMs();
            l["cache.hit_server_ms"] = w->hitServerMs();
            l["service.overhead_ms"] = w->overheadMs();
            l["service.solves_per_miss"] = w->solvesPerMiss();
        }
        const double base = *quantile(plain.solve.ms, 0.5);
        const std::optional<double> withTrace = quantile(traced.solve.ms, 0.5);
        l["trace.overhead_ms"] = withTrace ? *withTrace - base : 0;
        l["trace.overhead_share"] = withTrace && base > 0 ? (*withTrace - base) / base : 0;

        for (const LayerSpec& s : kLayerSpecs) {
            r.add(s.name, l.at(s.name), s.unit);
            std::printf("layer %-26s %14.6f %-6s should move: %s\n", s.name, l.at(s.name),
                        s.unit, s.target);
        }
        std::filesystem::create_directories(a.traceDir);
        const std::string path = a.traceDir + "/trace-" + a.workload + "-" +
                                 std::to_string(a.seed) + ".jsonl";
        if (!tracer.write(path)) throw std::runtime_error("cannot write " + path);
        std::printf("trace: %s\n", path.c_str());
    }

    Phase total = plain;
    total.attempted += traced.attempted;
    total.failed += traced.failed;
    total.failures.insert(total.failures.end(), traced.failures.begin(), traced.failures.end());
    if (traced.passes > 0 && traced.solvedPerPass != plain.solvedPerPass)
        total.fail("solved count differs between the untraced and traced halves");
    for (const std::string& f : total.failures) std::printf("FAILED %s\n", f.c_str());
    std::printf("host probe: median %.4f ms over %zu probes (nominal %.1f ms)\n",
                median(plain.probes), plain.probes.size(), kProbeNominalMs);
    std::printf("%s: %zu passes, %llu operations, %.2f s measured\n", a.workload.c_str(),
                plain.passes + traced.passes,
                static_cast<unsigned long long>(total.attempted), plain.seconds + traced.seconds);
    const bool correct = total.failed == 0;
    printResult(correct, total, r);
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench_workloads --workload table1|delta|serve --seed N "
                     "--seconds S --trace 0|1 [--trace-dir DIR]\n");
        return 2;
    }
    svc::ignoreSigpipe();
    try {
        if (a.workload == "table1") return run<Table1>(a);
        if (a.workload == "delta") return run<Delta>(a);
        return run<Serve>(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
}
