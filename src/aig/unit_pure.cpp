// Syntactic unit/pure variable detection on AIGs (Theorem 6 of the paper).
//
// One top-down sweep over the cone, processing nodes in descending index
// order (a node's fanins always have smaller indices, so all parents of a
// node are handled before the node itself).  Per node we track:
//   * reachEven / reachOdd — parities of the negation counts over all paths
//     from the node to the output (the root edge's complement bit counts);
//   * clean — existence of a negation-free path to the output.
// Then for an input node n_v:
//   * positive unit  iff clean(n_v)                      (negation-free path)
//   * negative unit  iff some clean parent reaches n_v over a complemented
//     edge (the "only negation right at the variable" case)
//   * positive pure  iff reachEven and not reachOdd
//   * negative pure  iff reachOdd  and not reachEven
// Cost: O(|phi| + |V|), as stated in the paper.  The per-node flags live
// as bits in the manager's generation-stamped TraversalCache, so the sweep
// allocates nothing.
//
// eliminateUnitPure (unit_pure.hpp) applies the detections, batched per
// sweep.
#include "src/aig/unit_pure.hpp"

#include <utility>

#include "src/base/timer.hpp"
#include "src/obs/obs.hpp"

namespace hqs {

namespace {
constexpr std::uint64_t kReachEven = 1;
constexpr std::uint64_t kReachOdd = 2;
constexpr std::uint64_t kClean = 4;
constexpr std::uint64_t kNegUnit = 8;
} // namespace

UnitPureInfo Aig::detectUnitPure(AigEdge root) const
{
    UnitPureInfo info;
    if (isConstant(root)) return info;

    const std::uint32_t rootIdx = root.nodeIndex();
    trav_.reset(nodes_.size());

    if (root.complemented()) {
        std::uint64_t bits = kReachOdd;
        // phi = ~v: assigning v = 1 falsifies phi, so v is negative unit.
        if (nodes_[rootIdx].extVar != kNoVar) bits |= kNegUnit;
        trav_.set(rootIdx, bits);
    } else {
        trav_.set(rootIdx, kReachEven | kClean);
    }

    for (std::uint32_t idx = rootIdx; idx > 0; --idx) {
        if (!trav_.has(idx)) continue; // outside the cone
        const std::uint64_t bits = trav_.get(idx);
        if ((bits & (kReachEven | kReachOdd)) == 0) continue;
        const Node& n = nodes_[idx];
        if (n.extVar != kNoVar) {
            const Var v = n.extVar;
            if (bits & kClean) info.posUnit.push_back(v);
            if (bits & kNegUnit) info.negUnit.push_back(v);
            if ((bits & kReachEven) && !(bits & kReachOdd)) info.posPure.push_back(v);
            if ((bits & kReachOdd) && !(bits & kReachEven)) info.negPure.push_back(v);
            continue;
        }
        for (const AigEdge f : {n.fanin0, n.fanin1}) {
            const std::uint32_t child = f.nodeIndex();
            if (child == 0) continue; // constant
            std::uint64_t childBits = 0;
            if (f.complemented()) {
                if (bits & kReachEven) childBits |= kReachOdd;
                if (bits & kReachOdd) childBits |= kReachEven;
                if ((bits & kClean) && nodes_[child].extVar != kNoVar) childBits |= kNegUnit;
            } else {
                childBits |= bits & (kReachEven | kReachOdd | kClean);
            }
            if (childBits != 0) trav_.orBits(child, childBits);
        }
    }
    return info;
}

UnitPureOutcome eliminateUnitPure(Aig& aig, AigEdge& matrix, const UnitPureHooks& hooks)
{
    OBS_PHASE(upSpan, "hqs.unit_pure", "phase.unit_pure.us");
    Timer t;
    UnitPureOutcome out;
    while (!aig.isConstant(matrix) && hooks.beforeSweep()) {
        const UnitPureInfo info = aig.detectUnitPure(matrix);
        ++out.sweeps;
        OBS_COUNT("hqs.unit_pure.sweeps", 1);
        for (const std::vector<Var>* units : {&info.posUnit, &info.negUnit}) {
            for (Var v : *units) {
                if (hooks.quantOf(v) == UnitPureQuant::Forall) {
                    out.universalUnit = true;
                    out.milliseconds = t.elapsedMilliseconds();
                    return out;
                }
            }
        }
        Substitution& sub = aig.scratchSubstitution();
        auto fix = [&](Var v, UnitPureQuant q, bool value) {
            hooks.eliminate(v, q, value);
            sub.set(v, value ? aig.constTrue() : aig.constFalse());
        };
        for (const auto& [vars, positive] :
             {std::pair{&info.posUnit, true}, std::pair{&info.negUnit, false}}) {
            for (Var v : *vars) {
                if (sub.maps(v) || hooks.quantOf(v) != UnitPureQuant::Exists) continue;
                fix(v, UnitPureQuant::Exists, positive);
                ++out.unitEliminations;
            }
        }
        for (const auto& [vars, positive] :
             {std::pair{&info.posPure, true}, std::pair{&info.negPure, false}}) {
            for (Var v : *vars) {
                if (sub.maps(v)) continue;
                const UnitPureQuant q = hooks.quantOf(v);
                if (q == UnitPureQuant::Free) continue;
                // Existential pure: the helpful value; universal pure: the
                // harmful one.
                fix(v, q, (q == UnitPureQuant::Exists) == positive);
                ++out.pureEliminations;
            }
        }
        if (sub.empty()) break;
        matrix = aig.substitute(matrix, sub);
    }
    out.milliseconds = t.elapsedMilliseconds();
    return out;
}

} // namespace hqs
