// Tests for the Theorem-6 syntactic unit/pure detection on AIGs.
//
// The check is sound but incomplete (paper, Example 4): every variable it
// reports must satisfy the semantic Definition 5, but monotone variables can
// be missed when some path parity disagrees.  The property sweep verifies
// soundness against truth tables; dedicated cases pin down the expected
// positives and a known incompleteness witness.  The batched Theorem-5
// pass built on the detection (eliminateUnitPure) is tested at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/aig/aig.hpp"
#include "src/aig/unit_pure.hpp"
#include "src/base/rng.hpp"

namespace hqs {
namespace {

std::uint64_t truthTable(const Aig& aig, AigEdge root, Var n)
{
    std::uint64_t tt = 0;
    std::vector<bool> a(n);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (Var v = 0; v < n; ++v) a[v] = (bits >> v) & 1u;
        if (aig.evaluate(root, a)) tt |= 1ull << bits;
    }
    return tt;
}

bool contains(const std::vector<Var>& vs, Var v)
{
    return std::find(vs.begin(), vs.end(), v) != vs.end();
}

TEST(UnitPure, TopLevelConjunctIsPositiveUnit)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(x, aig.mkOr(y, aig.variable(2)));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posUnit, 0));
    EXPECT_FALSE(contains(info.posUnit, 1));
    EXPECT_FALSE(contains(info.posUnit, 2));
}

TEST(UnitPure, NegatedConjunctIsNegativeUnit)
{
    Aig aig;
    const AigEdge x = aig.variable(0);
    const AigEdge y = aig.variable(1);
    const AigEdge f = aig.mkAnd(~x, y);
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.negUnit, 0));
    EXPECT_TRUE(contains(info.posUnit, 1));
}

TEST(UnitPure, RootVariableEdgeCases)
{
    Aig aig;
    const AigEdge y = aig.variable(3);
    const UnitPureInfo posInfo = aig.detectUnitPure(y);
    EXPECT_TRUE(contains(posInfo.posUnit, 3));
    EXPECT_TRUE(contains(posInfo.posPure, 3));
    const UnitPureInfo negInfo = aig.detectUnitPure(~y);
    EXPECT_TRUE(contains(negInfo.negUnit, 3));
    EXPECT_TRUE(contains(negInfo.negPure, 3));
}

TEST(UnitPure, ConstantRootReportsNothing)
{
    Aig aig;
    const UnitPureInfo info = aig.detectUnitPure(aig.constTrue());
    EXPECT_TRUE(info.posUnit.empty());
    EXPECT_TRUE(info.negUnit.empty());
    EXPECT_TRUE(info.posPure.empty());
    EXPECT_TRUE(info.negPure.empty());
}

TEST(UnitPure, MonotonePathsGivePurity)
{
    // CNF-style encoding of (y | x1) & (y | x2): every path from y passes an
    // even number of inverters, so y is positive pure; x1, x2 likewise.
    Aig aig;
    const AigEdge y = aig.variable(0);
    const AigEdge x1 = aig.variable(1);
    const AigEdge x2 = aig.variable(2);
    const AigEdge f = aig.mkAnd(aig.mkOr(y, x1), aig.mkOr(y, x2));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posPure, 0));
    EXPECT_TRUE(contains(info.posPure, 1));
    EXPECT_TRUE(contains(info.posPure, 2));
    EXPECT_TRUE(info.negPure.empty());
}

TEST(UnitPure, AntitonePathsGiveNegativePurity)
{
    // (~y | x): y occurs only negatively.
    Aig aig;
    const AigEdge y = aig.variable(0);
    const AigEdge x = aig.variable(1);
    const AigEdge f = aig.mkOr(~y, x);
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.negPure, 0));
    EXPECT_TRUE(contains(info.posPure, 1));
}

TEST(UnitPure, XorVariableIsNeitherUnitNorPure)
{
    Aig aig;
    const AigEdge f = aig.mkXor(aig.variable(0), aig.variable(1));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(info.posUnit.empty());
    EXPECT_TRUE(info.negUnit.empty());
    EXPECT_TRUE(info.posPure.empty());
    EXPECT_TRUE(info.negPure.empty());
}

TEST(UnitPure, PaperExample4MixedClauseSet)
{
    // The clause set of the paper's Fig. 1 / Example 4:
    // (y1 | x1) & (y1 | x2) & (y2 | ~x1) & (y2 | ~x2).
    // y1, y2 are positive pure; x1 and x2 are mixed-polarity, hence neither.
    Aig aig;
    const AigEdge y1 = aig.variable(0);
    const AigEdge y2 = aig.variable(1);
    const AigEdge x1 = aig.variable(2);
    const AigEdge x2 = aig.variable(3);
    const AigEdge f = aig.mkAnd(aig.mkAnd(aig.mkOr(y1, x1), aig.mkOr(y1, x2)),
                                aig.mkAnd(aig.mkOr(y2, ~x1), aig.mkOr(y2, ~x2)));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posPure, 0));
    EXPECT_TRUE(contains(info.posPure, 1));
    EXPECT_FALSE(contains(info.posPure, 2));
    EXPECT_FALSE(contains(info.negPure, 2));
    EXPECT_FALSE(contains(info.posPure, 3));
    EXPECT_FALSE(contains(info.negPure, 3));
}

TEST(UnitPure, SyntacticCheckIsIncompleteLikeExample4)
{
    // f = y & (~y | x) == y & x.  Semantically y is positive pure (and
    // unit); the parity check sees an odd path through ~y and misses the
    // purity, while the clean direct path still yields positive unit.
    // This mirrors the incompleteness the paper demonstrates in Example 4.
    Aig aig;
    const AigEdge y = aig.variable(0);
    const AigEdge x = aig.variable(1);
    const AigEdge f = aig.mkAnd(y, aig.mkOr(~y, x));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_TRUE(contains(info.posUnit, 0));
    EXPECT_FALSE(contains(info.posPure, 0)); // missed although semantically pure
    // Semantic confirmation that y *is* positive pure: f[0/y] & ~f[1/y] == 0.
    Aig check;
    const std::uint64_t c0 = truthTable(aig, aig.cofactor(f, 0, false), 2);
    const std::uint64_t c1 = truthTable(aig, aig.cofactor(f, 0, true), 2);
    EXPECT_EQ(c0 & ~c1 & 0xf, 0u);
}

TEST(UnitPure, VariablesOutsideConeNotReported)
{
    Aig aig;
    (void)aig.variable(9); // exists in the manager but not in the cone
    const AigEdge f = aig.mkAnd(aig.variable(0), aig.variable(1));
    const UnitPureInfo info = aig.detectUnitPure(f);
    EXPECT_FALSE(contains(info.posUnit, 9));
    EXPECT_FALSE(contains(info.posPure, 9));
}

/// Soundness sweep: every syntactically detected unit/pure variable
/// satisfies the semantic Definition 5.
class UnitPureSoundness : public ::testing::TestWithParam<int> {};

TEST_P(UnitPureSoundness, DetectionIsSemanticallySound)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    Aig aig;
    const Var n = 5;
    std::vector<AigEdge> pool;
    for (Var v = 0; v < n; ++v) pool.push_back(aig.variable(v));
    for (int i = 0; i < 14; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkOr(a, b));
    }
    const AigEdge f = pool.back() ^ rng.flip();
    if (aig.isConstant(f)) return;

    const UnitPureInfo info = aig.detectUnitPure(f);
    const std::uint64_t mask = (1ull << (1u << n)) - 1; // all 32 assignments

    for (Var v : info.posUnit) {
        EXPECT_EQ(truthTable(aig, aig.cofactor(f, v, false), n) & mask, 0u)
            << "posUnit v" << v << " must make f[0/v] unsat";
    }
    for (Var v : info.negUnit) {
        EXPECT_EQ(truthTable(aig, aig.cofactor(f, v, true), n) & mask, 0u)
            << "negUnit v" << v << " must make f[1/v] unsat";
    }
    for (Var v : info.posPure) {
        const std::uint64_t c0 = truthTable(aig, aig.cofactor(f, v, false), n);
        const std::uint64_t c1 = truthTable(aig, aig.cofactor(f, v, true), n);
        EXPECT_EQ(c0 & ~c1 & mask, 0u) << "posPure v" << v << " must be monotone";
    }
    for (Var v : info.negPure) {
        const std::uint64_t c0 = truthTable(aig, aig.cofactor(f, v, false), n);
        const std::uint64_t c1 = truthTable(aig, aig.cofactor(f, v, true), n);
        EXPECT_EQ(c1 & ~c0 & mask, 0u) << "negPure v" << v << " must be antitone";
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitPureSoundness, ::testing::Range(0, 80));

// ----- batched elimination (eliminateUnitPure) -------------------------------

/// Hooks treating every variable as @p quant (except those in @p free) and
/// logging the fixed values.
UnitPureHooks loggingHooks(std::map<Var, bool>& fixed, UnitPureQuant quant,
                           std::vector<Var> free = {})
{
    UnitPureHooks hooks;
    hooks.quantOf = [quant, free](Var v) {
        return contains(free, v) ? UnitPureQuant::Free : quant;
    };
    hooks.eliminate = [&fixed](Var v, UnitPureQuant, bool value) {
        EXPECT_TRUE(fixed.emplace(v, value).second) << "v" << v << " fixed twice";
    };
    hooks.beforeSweep = [] { return true; };
    return hooks;
}

TEST(UnitPureElimination, OneSweepFixesEveryIndependentLiteral)
{
    // a & !b & (p | x) & (!n | !x) with x free: a, b are units, p, n pure.
    const Var a = 0, b = 1, p = 2, n = 3, x = 4;
    Aig aig;
    const AigEdge vx = aig.variable(x);
    AigEdge m = aig.mkAndN({aig.variable(a), ~aig.variable(b), aig.mkOr(aig.variable(p), vx),
                            aig.mkOr(~aig.variable(n), ~vx)});
    std::map<Var, bool> fixed;
    const UnitPureOutcome out =
        eliminateUnitPure(aig, m, loggingHooks(fixed, UnitPureQuant::Exists, {x}));
    EXPECT_FALSE(out.universalUnit);
    EXPECT_EQ(out.sweeps, 1u);
    EXPECT_EQ(out.unitEliminations, 2u);
    EXPECT_EQ(out.pureEliminations, 2u);
    EXPECT_EQ(fixed, (std::map<Var, bool>{{a, true}, {b, false}, {p, true}, {n, false}}));
    EXPECT_EQ(m, aig.constTrue());
}

TEST(UnitPureElimination, UniversalUnitStopsBeforeFixingAnything)
{
    Aig aig;
    AigEdge m = aig.mkAndN({aig.variable(0), aig.variable(1), aig.mkOr(aig.variable(2), aig.variable(3))});
    const AigEdge before = m;
    std::map<Var, bool> fixed;
    UnitPureHooks hooks = loggingHooks(fixed, UnitPureQuant::Exists);
    hooks.quantOf = [](Var v) { return v == 1 ? UnitPureQuant::Forall : UnitPureQuant::Exists; };
    const UnitPureOutcome out = eliminateUnitPure(aig, m, hooks);
    EXPECT_TRUE(out.universalUnit);
    EXPECT_EQ(out.sweeps, 1u);
    EXPECT_TRUE(fixed.empty());
    EXPECT_EQ(m, before);
}

TEST(UnitPureElimination, UniversalPureTakesTheHarmfulValue)
{
    // (u | y) & (!v | y2) & (y | y2 | !y3): u positive pure -> false, v
    // negative pure -> true.
    Aig aig;
    AigEdge m = aig.mkAndN({aig.mkOr(aig.variable(0), aig.variable(2)),
                            aig.mkOr(~aig.variable(1), aig.variable(3)),
                            aig.mkOrN({aig.variable(2), aig.variable(3), ~aig.variable(4)})});
    std::map<Var, bool> fixed;
    UnitPureHooks hooks = loggingHooks(fixed, UnitPureQuant::Forall);
    hooks.quantOf = [](Var v) { return v < 2 ? UnitPureQuant::Forall : UnitPureQuant::Exists; };
    eliminateUnitPure(aig, m, hooks);
    EXPECT_EQ(fixed.at(0), false);
    EXPECT_EQ(fixed.at(1), true);
}

TEST(UnitPureElimination, StopsWhenBeforeSweepDeclines)
{
    Aig aig;
    AigEdge m = aig.mkAnd(aig.variable(0), aig.variable(1));
    const AigEdge before = m;
    std::map<Var, bool> fixed;
    UnitPureHooks hooks = loggingHooks(fixed, UnitPureQuant::Exists);
    hooks.beforeSweep = [] { return false; };
    const UnitPureOutcome out = eliminateUnitPure(aig, m, hooks);
    EXPECT_EQ(out.sweeps, 0u);
    EXPECT_EQ(m, before);
}

/// With every variable existential, the batched pass preserves
/// satisfiability and its result is f with the logged constants plugged in.
class UnitPureEliminationSoundness : public ::testing::TestWithParam<int> {};

TEST_P(UnitPureEliminationSoundness, PreservesSatisfiability)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
    Aig aig;
    const Var n = 6;
    std::vector<AigEdge> pool;
    for (Var v = 0; v < n; ++v) pool.push_back(aig.variable(v));
    // Unit conjuncts and monotone variables make multi-literal batches
    // likely.
    std::vector<AigEdge> conjuncts;
    for (int i = 0; i < 10; ++i) {
        const AigEdge a = pool[rng.below(pool.size())] ^ rng.flip();
        const AigEdge b = pool[rng.below(pool.size())] ^ rng.flip();
        pool.push_back(rng.flip() ? aig.mkAnd(a, b) : aig.mkOr(a, b));
        if (rng.below(3) == 0) conjuncts.push_back(pool.back());
    }
    conjuncts.push_back(pool.back());
    const AigEdge f = aig.mkAndN(conjuncts); // 2^6 assignments: one table word

    AigEdge m = f;
    std::map<Var, bool> fixed;
    eliminateUnitPure(aig, m, loggingHooks(fixed, UnitPureQuant::Exists));
    EXPECT_EQ(truthTable(aig, f, n) != 0, truthTable(aig, m, n) != 0);
    AigEdge plugged = f;
    for (const auto& [v, value] : fixed) plugged = aig.cofactor(plugged, v, value);
    EXPECT_EQ(truthTable(aig, plugged, n), truthTable(aig, m, n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnitPureEliminationSoundness, ::testing::Range(0, 80));

} // namespace
} // namespace hqs
