#include "src/runtime/components.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "src/cert/extract.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

namespace {

constexpr std::size_t kNoComponent = static_cast<std::size_t>(-1);

/// Label every variable with its component index (kNoComponent for
/// variables in no clause), components numbered by smallest variable.
/// Returns the number of components.
std::size_t labelComponents(const ParsedQdimacs& f, std::vector<std::size_t>& compOf)
{
    const Var n = f.matrix.numVars();
    std::vector<Var> parent(n);
    std::iota(parent.begin(), parent.end(), Var{0});
    const auto find = [&parent](Var v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]]; // path halving
            v = parent[v];
        }
        return v;
    };

    std::vector<char> occurs(n, 0);
    for (const Clause& c : f.matrix) {
        for (const Lit l : c) occurs[l.var()] = 1;
        for (std::size_t i = 1; i < c.size(); ++i) {
            const Var a = find(c[0].var());
            const Var b = find(c[i].var());
            if (a != b) parent[b] = a;
        }
    }

    compOf.assign(n, kNoComponent);
    std::vector<std::size_t> compOfRoot(n, kNoComponent);
    std::size_t count = 0;
    for (Var v = 0; v < n; ++v) {
        if (!occurs[v]) continue;
        std::size_t& c = compOfRoot[find(v)];
        if (c == kNoComponent) c = count++;
        compOf[v] = c;
    }
    return count;
}

std::vector<FormulaComponent> buildComponents(const ParsedQdimacs& f,
                                              const std::vector<std::size_t>& compOf,
                                              std::size_t count)
{
    const Var n = f.matrix.numVars();
    std::vector<FormulaComponent> comps(count);
    std::vector<Var> localOf(n, kNoVar);
    for (Var v = 0; v < n; ++v) {
        if (compOf[v] == kNoComponent) continue;
        FormulaComponent& comp = comps[compOf[v]];
        localOf[v] = static_cast<Var>(comp.vars.size());
        comp.vars.push_back(v);
    }

    const cert::NormalizedPrefix np = cert::normalizePrefix(f);
    std::vector<char> isUniversal(n, 0);
    for (const Var u : np.universals)
        if (u < n) isUniversal[u] = 1;
    std::vector<const std::vector<Var>*> depsOf(n, nullptr);
    for (std::size_t i = 0; i < np.existentials.size(); ++i)
        if (np.existentials[i] < n) depsOf[np.existentials[i]] = &np.deps[i];

    std::vector<PrefixBlockSpec> universals(count, PrefixBlockSpec{QuantKind::Forall, {}});
    for (Var v = 0; v < n; ++v) {
        const std::size_t c = compOf[v];
        if (c == kNoComponent) continue;
        if (isUniversal[v]) {
            universals[c].vars.push_back(localOf[v]);
            continue;
        }
        DependencySpec d{localOf[v], {}};
        if (depsOf[v]) {
            // Restricted to this component's universals: a universal absent
            // from the component's matrix can neither help nor hurt its
            // Skolem functions.
            for (const Var dep : *depsOf[v])
                if (dep < n && compOf[dep] == c) d.deps.push_back(localOf[dep]);
        }
        comps[c].local.henkin.push_back(std::move(d));
    }
    for (std::size_t c = 0; c < count; ++c) {
        comps[c].local.matrix.ensureVars(static_cast<Var>(comps[c].vars.size()));
        if (!universals[c].vars.empty())
            comps[c].local.blocks.push_back(std::move(universals[c]));
    }

    for (const Clause& clause : f.matrix) {
        if (clause.empty()) continue; // solveByComponents answers these Unsat
        Clause local;
        for (const Lit l : clause) local.push(Lit(localOf[l.var()], l.negative()));
        comps[compOf[clause[0].var()]].local.matrix.addClause(std::move(local));
    }
    return comps;
}

/// Fold @p part into @p total: counts and ms summed, peaks maxima.
void accumulate(HqsStats& total, const HqsStats& part)
{
    PreprocessStats& p = total.preprocess;
    const PreprocessStats& q = part.preprocess;
    p.unitsPropagated += q.unitsPropagated;
    p.universalLiteralsReduced += q.universalLiteralsReduced;
    p.equivalencesSubstituted += q.equivalencesSubstituted;
    p.gatesDetected += q.gatesDetected;
    p.clausesSubsumed += q.clausesSubsumed;
    p.literalsStrengthened += q.literalsStrengthened;
    p.rounds += q.rounds;

    total.incomparablePairs += part.incomparablePairs;
    total.selectedUniversals += part.selectedUniversals;
    total.maxsatMilliseconds += part.maxsatMilliseconds;
    total.universalsEliminated += part.universalsEliminated;
    total.existentialsEliminated += part.existentialsEliminated;
    total.copiesIntroduced += part.copiesIntroduced;
    total.unitEliminations += part.unitEliminations;
    total.pureEliminations += part.pureEliminations;
    total.droppedUnsupported += part.droppedUnsupported;
    total.unitPureSweeps += part.unitPureSweeps;
    total.unitPureMilliseconds += part.unitPureMilliseconds;
    total.peakConeSize = std::max(total.peakConeSize, part.peakConeSize);
    total.fraigRuns += part.fraigRuns;
    total.parallelCofactorBuilds += part.parallelCofactorBuilds;
    total.totalMilliseconds += part.totalMilliseconds;

    AigKernelStats& k = total.aigKernel;
    const AigKernelStats& l = part.aigKernel;
    k.strashProbes += l.strashProbes;
    k.strashResizes += l.strashResizes;
    k.opCacheHits += l.opCacheHits;
    k.opCacheMisses += l.opCacheMisses;
    k.gcRuns += l.gcRuns;
    k.gcReclaimedNodes += l.gcReclaimedNodes;
    k.peakLiveNodes = std::max(k.peakLiveNodes, l.peakLiveNodes);
    k.peakAllocatedNodes = std::max(k.peakAllocatedNodes, l.peakAllocatedNodes);

    total.usedQbfBackend = total.usedQbfBackend || part.usedQbfBackend;
    AigQbfStats& a = total.qbfStats;
    const AigQbfStats& b = part.qbfStats;
    a.existentialEliminations += b.existentialEliminations;
    a.universalEliminations += b.universalEliminations;
    a.unitEliminations += b.unitEliminations;
    a.pureEliminations += b.pureEliminations;
    a.unitPureSweeps += b.unitPureSweeps;
    a.unitPureMilliseconds += b.unitPureMilliseconds;
    a.droppedUnsupported += b.droppedUnsupported;
    a.fraigRuns += b.fraigRuns;
    a.peakConeSize = std::max(a.peakConeSize, b.peakConeSize);

    if (!part.decidedBy.empty() &&
        ("+" + total.decidedBy + "+").find("+" + part.decidedBy + "+") == std::string::npos)
        total.decidedBy += (total.decidedBy.empty() ? "" : "+") + part.decidedBy;
}

/// The monolithic path: one HqsSolver on @p f as given.
void solveWhole(const ParsedQdimacs& f, const HqsOptions& opts, ComponentSolveOutcome& out)
{
    OBS_COUNT("components.solved", 1);
    DqbfFormula whole = DqbfFormula::fromParsed(f);
    HqsSolver solver(opts);
    // Certification extracts against the original, so only then keep it.
    out.result = opts.computeSkolem ? solver.solve(whole) : solver.solve(std::move(whole));
    out.stats = solver.stats();
    if (opts.computeSkolem && out.result == SolveResult::Sat && solver.skolemCertificate()) {
        Timer timer;
        out.certificate = cert::extractCertificate(whole, *solver.skolemCertificate());
        out.certificateMilliseconds = timer.elapsedMilliseconds();
    }
}

ComponentMemo::Entry solveComponent(const FormulaComponent& comp, const HqsOptions& opts,
                                    HqsStats& total)
{
    OBS_COUNT("components.solved", 1);
    HqsSolver solver(opts);
    ComponentMemo::Entry e;
    e.result = solver.solve(DqbfFormula::fromParsed(comp.local));
    e.peakNodes = std::max<std::int64_t>(
        static_cast<std::int64_t>(solver.stats().aigKernel.peakLiveNodes),
        static_cast<std::int64_t>(solver.stats().peakConeSize));
    if (opts.computeSkolem && e.result == SolveResult::Sat && solver.skolemCertificate()) {
        e.skolem = *solver.skolemCertificate();
        e.local = comp.local;
    }
    accumulate(total, solver.stats());
    return e;
}

/// A memo entry that can answer @p comp, or nullptr.
const ComponentMemo::Entry* findReusable(const ComponentMemo& memo,
                                         const cache::CanonicalKey& key,
                                         const FormulaComponent& comp, bool certify)
{
    const auto it = memo.entries.find(key);
    if (it == memo.entries.end() || !isConclusive(it->second.result)) return nullptr;
    const ComponentMemo::Entry& e = it->second;
    if (certify && e.result == SolveResult::Sat && !(e.skolem && e.local == comp.local))
        return nullptr;
    return &e;
}

/// Merge per-component Skolem functions into one certificate over @p f,
/// mirroring cert::extractCertificate: one function per normalized
/// existential in declaration order, constFalse for unconstrained ones.
std::optional<cert::Certificate> mergeCertificate(
    const ParsedQdimacs& f, const std::vector<FormulaComponent>& comps,
    const std::vector<const ComponentMemo::Entry*>& solved)
{
    const DqbfFormula whole = DqbfFormula::fromParsed(f);
    cert::Certificate cert;
    cert.formula = whole.toParsed();
    cert.hash = cert::formulaHash(cert.formula);
    cert.aig = std::make_shared<Aig>();

    std::unordered_map<Var, AigEdge> merged;
    Substitution toGlobal;
    for (std::size_t i = 0; i < comps.size(); ++i) {
        if (!solved[i]->skolem) return std::nullopt; // no trace, no artifact
        const AigSkolemCertificate& sk = *solved[i]->skolem;
        const std::vector<Var>& localToGlobal = comps[i].vars;
        for (const auto& [localVar, edge] : sk.functions) {
            if (localVar >= localToGlobal.size()) continue; // solver-internal var
            const AigEdge imported = cert.aig->importCone(*sk.aig, edge);
            toGlobal.clear();
            for (const Var lv : cert.aig->support(imported)) {
                if (lv >= localToGlobal.size()) return std::nullopt;
                toGlobal.set(lv, cert.aig->variable(localToGlobal[lv]));
            }
            merged[localToGlobal[localVar]] =
                toGlobal.empty() ? imported : cert.aig->substitute(imported, toGlobal);
        }
    }

    for (const Var y : whole.existentials()) {
        const auto it = merged.find(y);
        cert.functions.push_back(it == merged.end() ? cert.aig->constFalse() : it->second);
    }
    OBS_GAUGE_MAX("cert.size_nodes", cert::countAndNodes(*cert.aig, cert.functions));
    return cert;
}

} // namespace

std::vector<FormulaComponent> splitComponents(const ParsedQdimacs& f)
{
    std::vector<std::size_t> compOf;
    const std::size_t count = labelComponents(f, compOf);
    return buildComponents(f, compOf, count);
}

ComponentSolveOutcome solveByComponents(const ParsedQdimacs& f, const HqsOptions& opts,
                                        ComponentMemo* memo)
{
    ComponentSolveOutcome out;
    std::vector<std::size_t> compOf;
    out.components = labelComponents(f, compOf);
    if (!memo && out.components <= 1) {
        solveWhole(f, opts, out);
        return out;
    }
    if (f.matrix.hasEmptyClause()) {
        out.result = SolveResult::Unsat;
        return out;
    }

    OBS_COUNT("components.split", 1);
    const std::vector<FormulaComponent> comps = buildComponents(f, compOf, out.components);
    const bool certify = opts.computeSkolem;
    std::vector<const ComponentMemo::Entry*> solved;
    // Fresh results live here for this solve; the memo keeps its own copy,
    // so two isomorphic components of one formula never share a slot.
    std::deque<ComponentMemo::Entry> fresh;
    bool sawMemout = false, sawTimeout = false, sawUnknown = false, sawUnsat = false;
    for (const FormulaComponent& comp : comps) {
        const ComponentMemo::Entry* entry = nullptr;
        cache::CanonicalKey key;
        if (memo) {
            key = cache::canonicalKey(comp.local);
            entry = findReusable(*memo, key, comp, certify);
            if (entry) {
                ++out.reusedComponents;
                out.coneNodesSaved += entry->peakNodes;
            }
        }
        if (!entry) {
            entry = &fresh.emplace_back(solveComponent(comp, opts, out.stats));
            if (memo && isConclusive(entry->result)) memo->entries[key] = *entry;
        }
        solved.push_back(entry);

        switch (entry->result) {
        case SolveResult::Unsat: sawUnsat = true; break;
        case SolveResult::Memout: sawMemout = true; break;
        case SolveResult::Timeout: sawTimeout = true; break;
        case SolveResult::Unknown: sawUnknown = true; break;
        case SolveResult::Sat: break;
        }
        if (sawUnsat) break; // the conjunction is already refuted
    }

    if (sawUnsat) {
        out.result = SolveResult::Unsat;
    } else if (sawMemout) {
        out.result = SolveResult::Memout;
    } else if (sawTimeout) {
        out.result = SolveResult::Timeout;
    } else if (sawUnknown) {
        out.result = SolveResult::Unknown;
    } else {
        out.result = SolveResult::Sat;
        if (certify) {
            Timer timer;
            out.certificate = mergeCertificate(f, comps, solved);
            out.certificateMilliseconds = timer.elapsedMilliseconds();
        }
    }
    return out;
}

} // namespace hqs
