// Tests for the CEGAR engine family (clausal abstraction + decision lists)
// and its DQCIR circuit front end:
//
//  * CegarSolver unit tests: hand-built instances with known verdicts,
//    budget/deadline behavior, restartability, and stats.
//  * The differential fuzz sweep: random small DQBFs cross-checked against
//    the expansion oracle and the HQS elimination engine, with every SAT
//    verdict certified through the production extract/serialize/check
//    pipeline (the decision lists as Skolem functions).
//  * DQCIR parsing and lowering: samples, prefix semantics, gate forms,
//    content sniffing, the corrupt-input corpus (one file per ParseError
//    branch), and solving parsed circuits with both engine families.
//  * Fault checkpoints `cegar-refine` and `dqcir-parse`: ScopedFault unit
//    tests plus the EnvFaultCegar suite the faults/* ctest rows rerun with
//    HQS_FAULT armed, proving injected faults surface as structured
//    FailureInfo instead of killing the process.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/base/fault.hpp"
#include "src/aig/cnf_bridge.hpp"
#include "src/base/rng.hpp"
#include "src/cegar/cegar_solver.hpp"
#include "src/circuit/dqcir_parser.hpp"
#include "src/dqbf/dqbf_formula.hpp"
#include "src/dqbf/dqbf_oracle.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/qbf/aig_qbf_solver.hpp"
#include "src/qbf/qdpll_solver.hpp"
#include "src/runtime/guard.hpp"
#include "tests/certify.hpp"

namespace hqs {
namespace {

DqbfFormula randomDqbf(Rng& rng, unsigned numUniv, unsigned numExist, unsigned numClauses)
{
    DqbfFormula f;
    std::vector<Var> xs, ys;
    for (unsigned i = 0; i < numUniv; ++i) xs.push_back(f.addUniversal());
    for (unsigned i = 0; i < numExist; ++i) {
        std::vector<Var> deps;
        for (Var x : xs) {
            if (rng.flip()) deps.push_back(x);
        }
        ys.push_back(f.addExistential(std::move(deps)));
    }
    std::vector<Var> all = xs;
    all.insert(all.end(), ys.begin(), ys.end());
    for (unsigned c = 0; c < numClauses; ++c) {
        Clause cl;
        for (unsigned j = 0; j < 2 + rng.below(2); ++j)
            cl.push(Lit(all[rng.below(all.size())], rng.flip()));
        f.matrix().addClause(std::move(cl));
    }
    return f;
}

/// Literal sign for a variable of polarity role @p role: 0 = mixed, 1 =
/// always positive, 2 = always negative (monotone / antitone).
bool roleSign(Rng& rng, unsigned role)
{
    return role == 0 ? rng.flip() : role == 2;
}

/// Random clause over @p vars, biased towards the unit/pure literals one
/// Theorem-6 sweep finds: about a third of the clauses are units (almost
/// always over @p unitVars), and two thirds of the variables keep one
/// polarity throughout.
void addUnitPureRichClauses(Rng& rng, Cnf& matrix, const std::vector<Var>& vars,
                            const std::vector<Var>& unitVars, unsigned numClauses)
{
    std::vector<unsigned> role(vars.size());
    for (unsigned& r : role) r = static_cast<unsigned>(rng.below(3));
    auto lit = [&](std::size_t i) { return Lit(vars[i], roleSign(rng, role[i])); };
    for (unsigned c = 0; c < numClauses; ++c) {
        const unsigned k = 1 + static_cast<unsigned>(rng.below(3));
        if (k == 1 && rng.below(8) != 0) {
            matrix.addClause({Lit(unitVars[rng.below(unitVars.size())], rng.flip())});
            continue;
        }
        Clause cl;
        for (unsigned j = 0; j < k; ++j) cl.push(lit(rng.below(vars.size())));
        matrix.addClause(std::move(cl));
    }
}

/// Random DQBF rich in unit clauses over existentials and in monotone
/// variables, so that many literals land in one unit/pure batch.
DqbfFormula unitPureRichDqbf(Rng& rng)
{
    DqbfFormula f;
    std::vector<Var> xs, ys;
    const unsigned numUniv = 1 + static_cast<unsigned>(rng.below(3));
    const unsigned numExist = 3 + static_cast<unsigned>(rng.below(5));
    for (unsigned i = 0; i < numUniv; ++i) xs.push_back(f.addUniversal());
    for (unsigned i = 0; i < numExist; ++i) {
        std::vector<Var> deps;
        for (Var x : xs) {
            if (rng.flip()) deps.push_back(x);
        }
        ys.push_back(f.addExistential(std::move(deps)));
    }
    std::vector<Var> all = xs;
    all.insert(all.end(), ys.begin(), ys.end());
    addUnitPureRichClauses(rng, f.matrix(), all, ys, 4 + static_cast<unsigned>(rng.below(8)));
    return f;
}

/// y(x) forced to equal x — SAT, identity Skolem function.
DqbfFormula copycat()
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    return f;
}

// --------------------------------------------------------------- CEGAR

TEST(Cegar, CopycatSatWithCertificate)
{
    const DqbfFormula f = copycat();
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
    EXPECT_GE(solver.stats().refinements, 1u);
    EXPECT_GE(solver.stats().abstractionVars, 1u);
}

TEST(Cegar, FreeExistentialCannotCopyUniversal)
{
    // y has no dependencies but must equal x: FALSE.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({});
    f.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    f.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    CegarSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
    EXPECT_GE(solver.stats().counterexamples, 1u);
}

TEST(Cegar, UniversalOnlyClauseIsUnsat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    f.addExistential({x});
    f.matrix().addClause({Lit::pos(x)});
    CegarSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
}

TEST(Cegar, EmptyMatrixIsSat)
{
    DqbfFormula f;
    const Var x = f.addUniversal();
    f.addExistential({x});
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    EXPECT_EQ(solver.solve(f), SolveResult::Sat);
    ASSERT_TRUE(solver.skolemCertificate().has_value());
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
}

TEST(Cegar, EmptyClauseIsUnsat)
{
    DqbfFormula f;
    f.addUniversal();
    f.matrix().addClause({});
    CegarSolver solver;
    EXPECT_EQ(solver.solve(f), SolveResult::Unsat);
}

TEST(Cegar, CrossDependencySat)
{
    // y1(x2) == x2 and y2(x1) == x1: satisfiable, but only by genuinely
    // non-linear (Henkin) Skolem functions.
    DqbfFormula f;
    const Var x1 = f.addUniversal();
    const Var x2 = f.addUniversal();
    const Var y1 = f.addExistential({x2});
    const Var y2 = f.addExistential({x1});
    f.matrix().addClause({Lit::neg(x2), Lit::pos(y1)});
    f.matrix().addClause({Lit::pos(x2), Lit::neg(y1)});
    f.matrix().addClause({Lit::neg(x1), Lit::pos(y2)});
    f.matrix().addClause({Lit::pos(x1), Lit::neg(y2)});
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    ASSERT_EQ(solver.solve(f), SolveResult::Sat);
    EXPECT_TRUE(certifiesThroughProduction(f, *solver.skolemCertificate()));
}

TEST(Cegar, RuleLimitReturnsMemout)
{
    // Clause {y} with D_y = {x}: the false default fails under both values
    // of x, so the solver must learn one rule per projection — two rules.
    DqbfFormula f;
    const Var x = f.addUniversal();
    const Var y = f.addExistential({x});
    f.matrix().addClause({Lit::pos(y)});

    CegarOptions limited;
    limited.ruleLimit = 1;
    CegarSolver solver(limited);
    EXPECT_EQ(solver.solve(f), SolveResult::Memout);

    CegarSolver unlimited;
    EXPECT_EQ(unlimited.solve(f), SolveResult::Sat);
    EXPECT_EQ(unlimited.stats().rulesLearned, 2u);
}

TEST(Cegar, ExpiredDeadlineReturnsTimeout)
{
    CegarOptions opts;
    opts.deadline = Deadline::in(1e-9);
    CegarSolver solver(opts);
    EXPECT_EQ(solver.solve(copycat()), SolveResult::Timeout);
}

TEST(Cegar, SolveIsRestartable)
{
    CegarOptions opts;
    opts.computeSkolem = true;
    CegarSolver solver(opts);
    const DqbfFormula sat = copycat();
    EXPECT_EQ(solver.solve(sat), SolveResult::Sat);

    DqbfFormula unsat;
    const Var x = unsat.addUniversal();
    const Var y = unsat.addExistential({});
    unsat.matrix().addClause({Lit::neg(x), Lit::pos(y)});
    unsat.matrix().addClause({Lit::pos(x), Lit::neg(y)});
    EXPECT_EQ(solver.solve(unsat), SolveResult::Unsat);
    EXPECT_FALSE(solver.skolemCertificate().has_value());

    EXPECT_EQ(solver.solve(sat), SolveResult::Sat);
    EXPECT_TRUE(certifiesThroughProduction(sat, *solver.skolemCertificate()));
}

// The tentpole's correctness anchor: CEGAR vs the expansion oracle vs the
// HQS elimination engine over random small instances, with every SAT
// verdict's decision lists certified end to end.
TEST(Cegar, DifferentialFuzzAgainstOracleAndHqs)
{
    Rng rng(20260808);
    for (int iter = 0; iter < 150; ++iter) {
        const unsigned numUniv = 1 + static_cast<unsigned>(rng.below(3));
        const unsigned numExist = 1 + static_cast<unsigned>(rng.below(3));
        const unsigned numClauses = 3 + static_cast<unsigned>(rng.below(6));
        const DqbfFormula f = randomDqbf(rng, numUniv, numExist, numClauses);

        const SolveResult oracle = expansionDqbf(f);
        ASSERT_TRUE(oracle == SolveResult::Sat || oracle == SolveResult::Unsat);

        HqsSolver hqsSolver;
        EXPECT_EQ(hqsSolver.solve(f), oracle) << "HQS disagrees at iter " << iter;

        CegarOptions opts;
        opts.computeSkolem = true;
        CegarSolver cegar(opts);
        EXPECT_EQ(cegar.solve(f), oracle) << "CEGAR disagrees at iter " << iter;
        if (oracle == SolveResult::Sat) {
            ASSERT_TRUE(cegar.skolemCertificate().has_value()) << "iter " << iter;
            EXPECT_TRUE(certifiesThroughProduction(f, *cegar.skolemCertificate()))
                << "iter " << iter;
        }
    }
}

// The same three-way cross-check on unit/pure-rich instances, with HQS run
// both as shipped and with CNF preprocessing off (so the unit clauses reach
// the batched AIG pass).  Every HQS SAT certificate is checked.
TEST(Cegar, DifferentialFuzzUnitPureRich)
{
    Rng rng(20261019);
    std::size_t multiLiteralBatches = 0;
    for (int iter = 0; iter < 150; ++iter) {
        const DqbfFormula f = unitPureRichDqbf(rng);

        const SolveResult oracle = expansionDqbf(f);
        ASSERT_TRUE(oracle == SolveResult::Sat || oracle == SolveResult::Unsat);

        HqsSolver hqsSolver;
        EXPECT_EQ(hqsSolver.solve(f), oracle) << "HQS disagrees at iter " << iter;

        HqsOptions raw;
        raw.preprocess = false;
        raw.computeSkolem = true;
        HqsSolver hqsRaw(raw);
        EXPECT_EQ(hqsRaw.solve(f), oracle) << "HQS (no preprocessing) disagrees at iter " << iter;
        const HqsStats& st = hqsRaw.stats();
        if (st.unitEliminations + st.pureEliminations > st.unitPureSweeps) ++multiLiteralBatches;
        if (oracle == SolveResult::Sat) {
            ASSERT_TRUE(hqsRaw.skolemCertificate().has_value()) << "iter " << iter;
            EXPECT_TRUE(certifiesThroughProduction(f, *hqsRaw.skolemCertificate()))
                << "iter " << iter;
        }

        CegarSolver cegar;
        EXPECT_EQ(cegar.solve(f), oracle) << "CEGAR disagrees at iter " << iter;
    }
    // The generator must actually exercise batches of several literals.
    EXPECT_GT(multiLiteralBatches, 30u);
}

// The QBF backend's batched pass against the independent clausal QDPLL
// solver on unit/pure-rich QBFs.
TEST(Cegar, AigQbfMatchesQdpllOnUnitPureRichQbfs)
{
    Rng rng(20261020);
    for (int iter = 0; iter < 150; ++iter) {
        const Var n = 4 + static_cast<Var>(rng.below(6));
        QbfProblem q;
        std::vector<Var> vars, existentials;
        for (Var v = 0; v < n; ++v) {
            const QuantKind kind = rng.below(3) == 0 ? QuantKind::Forall : QuantKind::Exists;
            q.prefix.addVar(kind, v);
            vars.push_back(v);
            if (kind == QuantKind::Exists) existentials.push_back(v);
        }
        if (existentials.empty()) existentials.push_back(0);
        q.matrix.ensureVars(n);
        addUnitPureRichClauses(rng, q.matrix, vars, existentials,
                               3 + static_cast<unsigned>(rng.below(2 * n)));

        const SolveResult expected = QdpllSolver().solve(q.matrix, q.prefix);
        ASSERT_TRUE(expected == SolveResult::Sat || expected == SolveResult::Unsat);
        Aig aig;
        AigQbfSolver solver;
        EXPECT_EQ(solver.solve(aig, buildFromCnf(aig, q.matrix), q.prefix), expected)
            << "AigQbfSolver disagrees with QDPLL at iter " << iter;
    }
}

// --------------------------------------------------------------- DQCIR

const char* kSatCircuit =
    "#QCIR-G14\n"
    "forall(x1, x2)\n"
    "depend(y1, x1)\n"
    "depend(y2, x2)\n"
    "output(phi)\n"
    "g1 = xor(x1, y1)\n"
    "g2 = xor(x2, y2)\n"
    "phi = and(-g1, -g2)\n";

DqbfFormula circuitFormula(const std::string& text)
{
    return DqbfFormula::fromParsed(lowerDqcir(parseDqcirString(text)));
}

TEST(Dqcir, ParsesAndLowersSatExample)
{
    const ParsedDqcir parsed = parseDqcirString(kSatCircuit);
    EXPECT_EQ(parsed.inputs.size(), 4u);
    EXPECT_EQ(parsed.gateCount, 3u);
    EXPECT_TRUE(parsed.inputs[0].universal);
    EXPECT_TRUE(parsed.inputs[1].universal);
    EXPECT_FALSE(parsed.inputs[2].universal);
    EXPECT_EQ(parsed.inputs[2].deps, (std::vector<std::size_t>{0}));
    EXPECT_EQ(parsed.inputs[3].deps, (std::vector<std::size_t>{1}));

    const ParsedQdimacs lowered = lowerDqcir(parsed);
    ASSERT_FALSE(lowered.blocks.empty());
    EXPECT_EQ(lowered.blocks[0].kind, QuantKind::Forall);
    EXPECT_EQ(lowered.blocks[0].vars, (std::vector<Var>{0, 1}));
    ASSERT_EQ(lowered.henkin.size(), 2u);
    EXPECT_EQ(lowered.henkin[0].deps, (std::vector<Var>{0}));
    EXPECT_EQ(lowered.henkin[1].deps, (std::vector<Var>{1}));

    const DqbfFormula f = DqbfFormula::fromParsed(lowered);
    HqsSolver hqs;
    EXPECT_EQ(hqs.solve(f), SolveResult::Sat);
    CegarSolver cegar;
    EXPECT_EQ(cegar.solve(f), SolveResult::Sat);
}

TEST(Dqcir, FreeExistentialCircuitIsUnsat)
{
    const DqbfFormula f = circuitFormula(
        "#QCIR-G14\n"
        "forall(x)\n"
        "free(y)\n"
        "output(-g1)\n"
        "g1 = xor(x, y)\n");
    HqsSolver hqs;
    EXPECT_EQ(hqs.solve(f), SolveResult::Unsat);
    CegarSolver cegar;
    EXPECT_EQ(cegar.solve(f), SolveResult::Unsat);
}

TEST(Dqcir, ExistsDependsOnUniversalsToItsLeftOnly)
{
    const ParsedDqcir parsed = parseDqcirString(
        "#QCIR-G14\n"
        "forall(x1)\n"
        "exists(y)\n"
        "forall(x2)\n"
        "output(g)\n"
        "g = or(x1, -x2, y)\n");
    ASSERT_EQ(parsed.inputs.size(), 3u);
    EXPECT_EQ(parsed.inputs[1].deps, (std::vector<std::size_t>{0}));

    const ParsedQdimacs lowered = lowerDqcir(parsed);
    ASSERT_EQ(lowered.henkin.size(), 1u);
    EXPECT_EQ(lowered.henkin[0].deps, (std::vector<Var>{0}));
}

TEST(Dqcir, IteGateSolvesAsExpected)
{
    // phi = ite(x, y, -y): y(x) must be 1 at x = 1 and 0 at x = 0 — SAT
    // with y = x.
    const DqbfFormula f = circuitFormula(
        "#QCIR-G14\n"
        "forall(x)\n"
        "depend(y, x)\n"
        "output(phi)\n"
        "ny = and(-y)\n"
        "phi = ite(x, y, ny)\n");
    CegarSolver cegar;
    EXPECT_EQ(cegar.solve(f), SolveResult::Sat);
    HqsSolver hqs;
    EXPECT_EQ(hqs.solve(f), SolveResult::Sat);
}

TEST(Dqcir, ConstantGates)
{
    EXPECT_EQ(CegarSolver().solve(circuitFormula("#QCIR-G14\n"
                                                 "forall(x)\n"
                                                 "output(g)\n"
                                                 "g = and()\n")),
              SolveResult::Sat);
    EXPECT_EQ(CegarSolver().solve(circuitFormula("#QCIR-G14\n"
                                                 "forall(x)\n"
                                                 "output(g)\n"
                                                 "g = or()\n")),
              SolveResult::Unsat);
}

TEST(Dqcir, ContentSniffing)
{
    EXPECT_TRUE(looksLikeDqcir(kSatCircuit));
    EXPECT_TRUE(looksLikeDqcir("\n  \n#QCIR-G14\noutput(g)\ng = and()\n"));
    EXPECT_FALSE(looksLikeDqcir("c comment\np cnf 2 1\na 1 0\n1 -2 0\n"));
    EXPECT_FALSE(looksLikeDqcir(""));
}

TEST(Dqcir, FileNotFoundThrows)
{
    EXPECT_THROW(parseDqcirFile("/nonexistent/file.dqcir"), ParseError);
}

// Every .dqcir file in the corrupt-input corpus must be rejected with a
// typed ParseError (not accepted, not crash); each exercises one throw
// branch of the DQCIR parser.
TEST(Dqcir, CorruptCorpusIsRejectedWithParseError)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(HQS_TEST_DATA_DIR) / "corrupt";
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".dqcir") continue;
        ++count;
        EXPECT_THROW(parseDqcirFile(entry.path().string()), ParseError)
            << "accepted corrupt file " << entry.path();
    }
    EXPECT_GE(count, 20u); // one per ParseError branch of the parser
}

// The sample circuits under data/dqcir/ round-trip through parse + lower +
// both engine families with the verdict their names claim.
TEST(Dqcir, SampleFilesSolveWithBothEngineFamilies)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(HQS_TEST_DATA_DIR) / "dqcir";
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".dqcir") continue;
        ++count;
        const DqbfFormula f =
            DqbfFormula::fromParsed(lowerDqcir(parseDqcirFile(entry.path().string())));
        const bool expectSat =
            entry.path().filename().string().find("unsat") == std::string::npos;
        const SolveResult expected = expectSat ? SolveResult::Sat : SolveResult::Unsat;
        HqsSolver hqs;
        EXPECT_EQ(hqs.solve(f), expected) << entry.path();
        CegarSolver cegar;
        EXPECT_EQ(cegar.solve(f), expected) << entry.path();
    }
    EXPECT_GE(count, 2u);
}

// --------------------------------------------------------------- faults

TEST(CegarFault, RefineCheckpointThrowsInjectedFault)
{
    fault::ScopedFault armed("cegar-refine");
    CegarSolver solver;
    const DqbfFormula f = copycat();
    EXPECT_THROW(solver.solve(f), fault::InjectedFault);
    fault::disarm();
    EXPECT_EQ(solver.solve(f), SolveResult::Sat); // recovers once disarmed
}

TEST(DqcirFault, ParseCheckpointThrowsInjectedFault)
{
    fault::ScopedFault armed("dqcir-parse");
    EXPECT_THROW(parseDqcirString(kSatCircuit), fault::InjectedFault);
    fault::disarm();
    EXPECT_EQ(parseDqcirString(kSatCircuit).inputs.size(), 4u);
}

// Rerun by the faults/cegar-refine-1 and faults/dqcir-parse-1 ctest rows
// with HQS_FAULT armed through the environment: the injected fault must
// surface as a structured FailureInfo out of runGuarded, never unwind.
TEST(EnvFaultCegar, ArmedSiteSurfacesAsStructuredFailure)
{
    const std::string site = fault::armedSite();
    if (site.empty()) GTEST_SKIP() << "no HQS_FAULT armed";

    const GuardedOutcome out = runGuarded(GuardOptions{}, [&](const Deadline& dl) {
        const DqbfFormula f = circuitFormula(kSatCircuit);
        CegarOptions opts;
        opts.deadline = dl;
        CegarSolver solver(opts);
        return solver.solve(f);
    });
    ASSERT_TRUE(out.failure) << "armed site " << site << " never fired";
    EXPECT_EQ(out.failure.kind, FailureKind::InjectedFault);
    EXPECT_EQ(out.failure.site, site);
    EXPECT_FALSE(isConclusive(out.result));
}

} // namespace
} // namespace hqs
