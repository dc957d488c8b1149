#include "src/qbf/aig_qbf_solver.hpp"

#include <algorithm>
#include <limits>

#include "src/aig/cnf_bridge.hpp"
#include "src/aig/unit_pure.hpp"
#include "src/dqbf/skolem_recorder.hpp"
#include "src/obs/obs.hpp"
#include "src/sat/sat_solver.hpp"

namespace hqs {

SolveResult AigQbfSolver::solve(Aig& aig, AigEdge matrix, QbfPrefix prefix)
{
    OBS_SPAN(qbfSpan, "qbf.aig_eliminate");
    stats_ = AigQbfStats{};
    std::size_t lastFraigSize = 0;

    auto trackPeak = [&]() {
        stats_.peakConeSize = std::max(stats_.peakConeSize, aig.coneSize(matrix));
    };

    auto collectGarbage = [&]() {
        std::vector<AigEdge*> roots{&matrix};
        if (opts_.recorder) opts_.recorder->appendGcRoots(roots);
        aig.garbageCollect(std::move(roots));
    };

    // Returns Unknown to continue, or a final resource-limit result.
    auto housekeeping = [&]() -> SolveResult {
        const std::size_t cone = aig.coneSize(matrix);
        stats_.peakConeSize = std::max(stats_.peakConeSize, cone);
        if (opts_.deadline.expired()) return deadlineExceededResult(opts_.deadline);
        // nodeLimit is a *live*-node budget: the cone is a lower bound on
        // live nodes, so an oversized cone is an immediate memout, while a
        // bloated pool gets one garbage collection before the verdict.
        if (opts_.nodeLimit != 0 && cone > opts_.nodeLimit) return SolveResult::Memout;
        if (opts_.nodeLimit != 0 && aig.numNodes() > opts_.nodeLimit) {
            collectGarbage();
            if (aig.numNodes() > opts_.nodeLimit) return SolveResult::Memout;
        }
        if (opts_.fraig && cone > opts_.fraigThresholdNodes && cone > 2 * lastFraigSize) {
            FraigOptions fopts;
            fopts.deadline = opts_.deadline;
            matrix = fraigReduce(aig, matrix, fopts);
            lastFraigSize = aig.coneSize(matrix);
            ++stats_.fraigRuns;
            // FRAIG merges strand the losing cones; reclaim them eagerly.
            if (aig.numNodes() > 2 * lastFraigSize + 1000) collectGarbage();
        }
        if (aig.numNodes() > 4 * aig.coneSize(matrix) + 20000) collectGarbage();
        return SolveResult::Unknown;
    };

    // Theorem-5 applications of the Theorem-6 syntactic detection, batched
    // per sweep (src/aig/unit_pure.hpp); returns Unsat when a universal unit
    // is found, Unknown otherwise.
    UnitPureHooks unitPureHooks;
    unitPureHooks.quantOf = [&](Var v) {
        if (!prefix.contains(v)) return UnitPureQuant::Free;
        return prefix.kindOf(v) == QuantKind::Exists ? UnitPureQuant::Exists
                                                     : UnitPureQuant::Forall;
    };
    unitPureHooks.eliminate = [&](Var v, UnitPureQuant q, bool value) {
        if (q == UnitPureQuant::Exists && opts_.recorder) {
            opts_.recorder->record(SkolemRecorder::Constant{v, value});
        }
        prefix.removeVar(v);
    };
    unitPureHooks.beforeSweep = [&]() {
        if (opts_.deadline.expired()) return false;
        if (aig.numNodes() > 4 * aig.coneSize(matrix) + 20000) collectGarbage();
        return true;
    };
    auto unitPurePass = [&]() -> SolveResult {
        if (!opts_.unitPure) return SolveResult::Unknown;
        const UnitPureOutcome up = eliminateUnitPure(aig, matrix, unitPureHooks);
        stats_.unitPureMilliseconds += up.milliseconds;
        stats_.unitPureSweeps += up.sweeps;
        stats_.unitEliminations += up.unitEliminations;
        stats_.pureEliminations += up.pureEliminations;
        return up.universalUnit ? SolveResult::Unsat : SolveResult::Unknown;
    };

    trackPeak();
    if (SolveResult r = unitPurePass(); r != SolveResult::Unknown) return r;

    while (!prefix.empty() && !aig.isConstant(matrix)) {
        if (SolveResult r = housekeeping(); r != SolveResult::Unknown) return r;

        // Occurrence counts of the innermost block only: drop block
        // variables that no longer occur; pick the cheapest occurring one.
        const QbfBlock& block = prefix.blocks().back();
        const std::vector<std::size_t> counts = aig.inputFaninCounts(matrix, block.vars);
        Var pick = kNoVar;
        std::size_t best = std::numeric_limits<std::size_t>::max();
        std::vector<Var> unsupported;
        for (std::size_t i = 0; i < block.vars.size(); ++i) {
            if (counts[i] == 0) {
                unsupported.push_back(block.vars[i]);
            } else if (counts[i] < best) {
                best = counts[i];
                pick = block.vars[i];
            }
        }
        for (Var v : unsupported) {
            if (opts_.recorder && prefix.kindOf(v) == QuantKind::Exists) {
                opts_.recorder->record(SkolemRecorder::Constant{v, false});
            }
            prefix.removeVar(v);
            ++stats_.droppedUnsupported;
        }
        if (pick == kNoVar) continue; // whole block vanished

        const QuantKind kind = prefix.kindOf(pick);
        if (kind == QuantKind::Exists) {
            const AigEdge cof0 = aig.cofactor(matrix, pick, false);
            const AigEdge cof1 = aig.cofactor(matrix, pick, true);
            if (opts_.recorder) {
                opts_.recorder->record(SkolemRecorder::Exists{pick, cof1});
            }
            matrix = aig.mkOr(cof0, cof1);
        } else {
            matrix = aig.forallVar(matrix, pick);
        }
        prefix.removeVar(pick);
        if (kind == QuantKind::Exists) {
            ++stats_.existentialEliminations;
            OBS_COUNT("qbf.elim.existential", 1);
        } else {
            ++stats_.universalEliminations;
            OBS_COUNT("qbf.elim.universal", 1);
        }
        trackPeak();

        if (SolveResult r = unitPurePass(); r != SolveResult::Unknown) return r;
    }

    if (aig.isConstant(matrix)) {
        return aig.constantValue(matrix) ? SolveResult::Sat : SolveResult::Unsat;
    }
    // Prefix exhausted, non-constant matrix: remaining support variables are
    // free, i.e. outermost existentials — a non-constant function is
    // satisfiable.  For Skolem tracking, pin them to values from a model.
    if (opts_.recorder) {
        SatSolver sat;
        AigCnfBridge bridge(aig, sat);
        const Lit out = bridge.litFor(matrix);
        if (sat.solve({out}, opts_.deadline) != SolveResult::Sat) {
            return deadlineExceededResult(opts_.deadline); // deadline hit mid-certification
        }
        for (Var v : aig.support(matrix)) {
            const lbool val = sat.modelValue(bridge.satVarForInput(v));
            opts_.recorder->record(SkolemRecorder::Constant{v, val.isTrue()});
        }
    }
    return SolveResult::Sat;
}

} // namespace hqs
