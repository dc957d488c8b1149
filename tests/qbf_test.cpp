// Tests for the QBF layer: prefix bookkeeping, the elimination-based AIG
// solver, the search-based cross-check solver, and their agreement with the
// brute-force oracle on randomized prefixes.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/qbf/aig_qbf_solver.hpp"
#include "src/qbf/qbf_oracle.hpp"
#include "src/qbf/qdpll_solver.hpp"
#include "src/qbf/search_qbf_solver.hpp"

namespace hqs {
namespace {

TEST(QbfPrefix, MergesAdjacentSameKindBlocks)
{
    QbfPrefix p;
    p.addBlock(QuantKind::Forall, {0, 1});
    p.addBlock(QuantKind::Forall, {2});
    p.addBlock(QuantKind::Exists, {3});
    ASSERT_EQ(p.numBlocks(), 2u);
    EXPECT_EQ(p.blocks()[0].vars, (std::vector<Var>{0, 1, 2}));
    EXPECT_EQ(p.numAlternations(), 1u);
    EXPECT_EQ(p.numVars(), 4u);
}

TEST(QbfPrefix, KindOfAndContains)
{
    QbfPrefix p;
    p.addBlock(QuantKind::Forall, {0});
    p.addBlock(QuantKind::Exists, {1});
    EXPECT_TRUE(p.contains(0));
    EXPECT_TRUE(p.contains(1));
    EXPECT_FALSE(p.contains(2));
    EXPECT_EQ(p.kindOf(0), QuantKind::Forall);
    EXPECT_EQ(p.kindOf(1), QuantKind::Exists);
}

TEST(QbfPrefix, RemoveVarMergesNeighbours)
{
    QbfPrefix p;
    p.addBlock(QuantKind::Exists, {0});
    p.addBlock(QuantKind::Forall, {1});
    p.addBlock(QuantKind::Exists, {2});
    p.removeVar(1);
    ASSERT_EQ(p.numBlocks(), 1u);
    EXPECT_EQ(p.blocks()[0].kind, QuantKind::Exists);
    EXPECT_EQ(p.blocks()[0].vars, (std::vector<Var>{0, 2}));
}

TEST(QbfPrefix, RemoveLastVarEmptiesPrefix)
{
    QbfPrefix p;
    p.addVar(QuantKind::Forall, 5);
    p.removeVar(5);
    EXPECT_TRUE(p.empty());
}

TEST(QbfFromParsed, FreeVariablesBecomeOuterExistentials)
{
    const auto parsed = parseDqdimacsString("p cnf 3 1\na 2 0\ne 3 0\n1 2 3 0\n");
    const QbfProblem q = qbfFromParsed(parsed);
    ASSERT_EQ(q.prefix.numBlocks(), 3u);
    EXPECT_EQ(q.prefix.blocks()[0].kind, QuantKind::Exists);
    EXPECT_EQ(q.prefix.blocks()[0].vars, (std::vector<Var>{0}));
    EXPECT_EQ(q.prefix.blocks()[1].kind, QuantKind::Forall);
}

TEST(QbfFromParsed, RejectsHenkinLines)
{
    const auto parsed = parseDqdimacsString("p cnf 2 1\na 1 0\nd 2 1 0\n1 2 0\n");
    EXPECT_THROW(qbfFromParsed(parsed), ParseError);
}

// ----- Elimination solver on hand-crafted formulas -------------------------

/// Helper: solve `prefix : matrix-built-from-cnf` with the AIG solver.
SolveResult solveElim(const QbfProblem& q, AigQbfOptions opts = {})
{
    Aig aig;
    const AigEdge matrix = buildFromCnf(aig, q.matrix);
    AigQbfSolver solver(opts);
    return solver.solve(aig, matrix, q.prefix);
}

TEST(AigQbfSolver, ForallExistsEquality)
{
    // forall x exists y: (x<->y)  — SAT (y copies x).
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0), Lit::neg(1)});
    q.matrix.addClause({Lit::neg(0), Lit::pos(1)});
    q.prefix.addVar(QuantKind::Forall, 0);
    q.prefix.addVar(QuantKind::Exists, 1);
    EXPECT_EQ(solveElim(q), SolveResult::Sat);
}

TEST(AigQbfSolver, ExistsForallEqualityIsUnsat)
{
    // exists y forall x: (x<->y) — UNSAT.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0), Lit::neg(1)});
    q.matrix.addClause({Lit::neg(0), Lit::pos(1)});
    q.prefix.addVar(QuantKind::Exists, 1);
    q.prefix.addVar(QuantKind::Forall, 0);
    EXPECT_EQ(solveElim(q), SolveResult::Unsat);
}

TEST(AigQbfSolver, TrueAndFalseConstants)
{
    QbfProblem taut;
    taut.prefix.addVar(QuantKind::Forall, 0);
    EXPECT_EQ(solveElim(taut), SolveResult::Sat);

    QbfProblem contra;
    contra.matrix.addClause(Clause{});
    contra.prefix.addVar(QuantKind::Exists, 0);
    EXPECT_EQ(solveElim(contra), SolveResult::Unsat);
}

TEST(AigQbfSolver, TwoAlternations)
{
    // forall x exists y forall z: (x | y | z)&(~x | ~y | ~z) — y = ~x works:
    // clause1 = x|~x|z.. wait: y=~x gives (x|~x|z)=T and (~x|x|~z)=T. SAT.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0), Lit::pos(1), Lit::pos(2)});
    q.matrix.addClause({Lit::neg(0), Lit::neg(1), Lit::neg(2)});
    q.prefix.addVar(QuantKind::Forall, 0);
    q.prefix.addVar(QuantKind::Exists, 1);
    q.prefix.addVar(QuantKind::Forall, 2);
    EXPECT_EQ(solveElim(q), SolveResult::Sat);
    EXPECT_TRUE(bruteForceQbf(q));
}

TEST(AigQbfSolver, UnsupportedPrefixVariablesAreDropped)
{
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0)});
    q.prefix.addVar(QuantKind::Forall, 5); // not in the matrix
    q.prefix.addVar(QuantKind::Exists, 0);
    AigQbfSolver solver;
    Aig aig;
    const AigEdge m = buildFromCnf(aig, q.matrix);
    EXPECT_EQ(solver.solve(aig, m, q.prefix), SolveResult::Sat);
}

TEST(AigQbfSolver, UnitPureShortcutsCountInStats)
{
    // exists y forall x: y & (x | y): y is positive unit.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(1)});
    q.matrix.addClause({Lit::pos(0), Lit::pos(1)});
    q.prefix.addVar(QuantKind::Exists, 1);
    q.prefix.addVar(QuantKind::Forall, 0);
    Aig aig;
    const AigEdge m = buildFromCnf(aig, q.matrix);
    AigQbfSolver solver;
    EXPECT_EQ(solver.solve(aig, m, q.prefix), SolveResult::Sat);
    EXPECT_GE(solver.stats().unitEliminations, 1u);
    EXPECT_GE(solver.stats().unitPureSweeps, 1u);
}

TEST(AigQbfSolver, BatchedUnitPureEliminatesIndependentLiteralsInTwoSweeps)
{
    // exists a b p n forall u exists w: a_i & !b_i & (p_i | u | w) &
    // (!n_i | !u | !w) & (u <-> w).  One sweep fixes all 4k literals, the
    // second finds nothing; eliminating w then leaves true.
    constexpr Var k = 6;
    const Var u = 4 * k;
    const Var w = u + 1;
    QbfProblem q;
    std::vector<Var> outer;
    for (Var i = 0; i < k; ++i) {
        const Var a = 4 * i, b = a + 1, p = a + 2, n = a + 3;
        outer.insert(outer.end(), {a, b, p, n});
        q.matrix.addClause({Lit::pos(a)});
        q.matrix.addClause({Lit::neg(b)});
        q.matrix.addClause({Lit::pos(p), Lit::pos(u), Lit::pos(w)});
        q.matrix.addClause({Lit::neg(n), Lit::neg(u), Lit::neg(w)});
    }
    q.matrix.addClause({Lit::pos(u), Lit::neg(w)});
    q.matrix.addClause({Lit::neg(u), Lit::pos(w)});
    q.prefix.addBlock(QuantKind::Exists, outer);
    q.prefix.addVar(QuantKind::Forall, u);
    q.prefix.addVar(QuantKind::Exists, w);

    Aig aig;
    AigQbfSolver solver;
    EXPECT_EQ(solver.solve(aig, buildFromCnf(aig, q.matrix), q.prefix), SolveResult::Sat);
    EXPECT_EQ(QdpllSolver().solve(q.matrix, q.prefix), SolveResult::Sat);
    EXPECT_EQ(solver.stats().unitEliminations, 2u * k);
    EXPECT_EQ(solver.stats().pureEliminations, 2u * k);
    EXPECT_LE(solver.stats().unitPureSweeps, 2u);
    EXPECT_EQ(solver.stats().existentialEliminations, 1u);
}

TEST(AigQbfSolver, UniversalUnitAmongExistentialUnitsIsUnsat)
{
    QbfProblem q;
    std::vector<Var> ys;
    for (Var y = 1; y <= 8; ++y) {
        ys.push_back(y);
        q.matrix.addClause({Lit(y, y % 2 == 0)});
    }
    q.matrix.addClause({Lit::pos(0)});
    q.prefix.addBlock(QuantKind::Exists, ys);
    q.prefix.addVar(QuantKind::Forall, 0);
    Aig aig;
    AigQbfSolver solver;
    EXPECT_EQ(solver.solve(aig, buildFromCnf(aig, q.matrix), q.prefix), SolveResult::Unsat);
    EXPECT_TRUE(!bruteForceQbf(q));
    EXPECT_EQ(solver.stats().unitEliminations, 0u);
    EXPECT_EQ(solver.stats().unitPureSweeps, 1u);
}

TEST(AigQbfSolver, PositiveAndNegativeUnitFoldsToUnsat)
{
    // forall x exists y a b: (y & a) & ((!y & b) & (x | b)), built directly
    // as an AIG (no CNF, so nothing folds y & !y early): y is a positive and
    // a negative unit at once.
    const Var x = 0, y = 1, a = 2, b = 3;
    Aig aig;
    const AigEdge m = aig.mkAnd(
        aig.mkAnd(aig.variable(y), aig.variable(a)),
        aig.mkAnd(aig.mkAnd(~aig.variable(y), aig.variable(b)),
                  aig.mkOr(aig.variable(x), aig.variable(b))));
    ASSERT_FALSE(aig.isConstant(m));
    const UnitPureInfo info = aig.detectUnitPure(m);
    ASSERT_NE(std::find(info.posUnit.begin(), info.posUnit.end(), y), info.posUnit.end());
    ASSERT_NE(std::find(info.negUnit.begin(), info.negUnit.end(), y), info.negUnit.end());

    QbfPrefix prefix;
    prefix.addVar(QuantKind::Forall, x);
    prefix.addBlock(QuantKind::Exists, {y, a, b});
    AigQbfSolver solver;
    EXPECT_EQ(solver.solve(aig, m, prefix), SolveResult::Unsat);
    EXPECT_EQ(solver.stats().unitEliminations, 3u); // y once, a, b
    EXPECT_EQ(solver.stats().unitPureSweeps, 1u);
}

TEST(AigQbfSolver, UniversalUnitIsUnsat)
{
    // forall x: x  — universal unit, unsatisfied.
    QbfProblem q;
    q.matrix.addClause({Lit::pos(0)});
    q.prefix.addVar(QuantKind::Forall, 0);
    EXPECT_EQ(solveElim(q), SolveResult::Unsat);
}

TEST(AigQbfSolver, DeadlineYieldsTimeout)
{
    // A moderately large random QBF with an expired deadline.
    Rng rng(9);
    QbfProblem q;
    const Var n = 24;
    q.matrix.ensureVars(n);
    for (int c = 0; c < 100; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v)
        q.prefix.addVar(v % 2 == 0 ? QuantKind::Forall : QuantKind::Exists, v);
    AigQbfOptions opts;
    opts.deadline = Deadline::in(1e-9);
    const SolveResult r = solveElim(q, opts);
    EXPECT_TRUE(r == SolveResult::Timeout || isConclusive(r));
}

TEST(AigQbfSolver, NodeLimitYieldsMemout)
{
    Rng rng(11);
    QbfProblem q;
    const Var n = 20;
    q.matrix.ensureVars(n);
    for (int c = 0; c < 90; ++c) {
        Clause cl;
        for (int j = 0; j < 3; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v)
        q.prefix.addVar(v % 2 == 0 ? QuantKind::Forall : QuantKind::Exists, v);
    AigQbfOptions opts;
    opts.nodeLimit = 10; // absurdly small: must trip unless solved instantly
    opts.fraig = false;
    const SolveResult r = solveElim(q, opts);
    EXPECT_TRUE(r == SolveResult::Memout || isConclusive(r));
}

// ----- Randomized agreement: elimination vs search vs oracle ---------------

class RandomQbfAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomQbfAgreement, AllThreeSolversAgree)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
    const Var n = 5 + static_cast<Var>(rng.below(4)); // 5..8 vars
    QbfProblem q;
    q.matrix.ensureVars(n);
    const int m = static_cast<int>(n) * 2 + static_cast<int>(rng.below(2 * n));
    for (int c = 0; c < m; ++c) {
        Clause cl;
        const int k = 2 + static_cast<int>(rng.below(2));
        for (int j = 0; j < k; ++j) cl.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
        q.matrix.addClause(std::move(cl));
    }
    for (Var v = 0; v < n; ++v) {
        q.prefix.addVar(rng.flip() ? QuantKind::Forall : QuantKind::Exists, v);
    }

    const bool expected = bruteForceQbf(q);

    EXPECT_EQ(solveElim(q) == SolveResult::Sat, expected);

    Aig aig;
    const AigEdge matrix = buildFromCnf(aig, q.matrix);
    EXPECT_EQ(searchQbfSolve(aig, matrix, q.prefix) == SolveResult::Sat, expected);

    // Elimination with optimizations off must agree, too.
    AigQbfOptions plain;
    plain.unitPure = false;
    plain.fraig = false;
    EXPECT_EQ(solveElim(q, plain) == SolveResult::Sat, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomQbfAgreement, ::testing::Range(0, 60));

} // namespace
} // namespace hqs
