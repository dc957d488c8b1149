// AIG-based QBF solver by quantifier elimination — our stand-in for
// AIGSOLVE [26], the backend HQS hands the linearized problem to.
//
// The solver repeatedly eliminates variables of the innermost block
// (∃v.phi = phi[0/v] | phi[1/v], ∀v.phi = phi[0/v] & phi[1/v]), interleaved
// with the same Theorem-5/6 unit & pure eliminations the DQBF loop uses,
// FRAIG sweeping to keep the AIG small, and garbage collection.  The matrix
// lives in a caller-provided Aig manager, so HQS can "feed the remaining AIG
// directly into this solver" exactly as the paper describes.
#pragma once

#include <cstddef>

#include "src/aig/aig.hpp"
#include "src/aig/fraig.hpp"
#include "src/base/result.hpp"
#include "src/base/timer.hpp"
#include "src/qbf/qbf_prefix.hpp"

namespace hqs {

class SkolemRecorder;

struct AigQbfOptions {
    /// Detect & eliminate unit/pure variables between eliminations.
    bool unitPure = true;
    /// Run FRAIG SAT sweeping when the matrix cone grows beyond the
    /// threshold (and has doubled since the last sweep).
    bool fraig = true;
    std::size_t fraigThresholdNodes = 10000;
    /// Live-AIG-node budget (0 = unlimited), the proxy for the paper's 8 GB
    /// memory limit.  Checked against the matrix cone and — after a garbage
    /// collection — the node pool, so stranded allocations never trip it.
    std::size_t nodeLimit = 0;
    Deadline deadline = Deadline::unlimited();
    /// When set, existential eliminations are logged for Skolem
    /// reconstruction (see src/dqbf/skolem_recorder.hpp).
    SkolemRecorder* recorder = nullptr;
};

struct AigQbfStats {
    std::size_t existentialEliminations = 0;
    std::size_t universalEliminations = 0;
    std::size_t unitEliminations = 0;
    std::size_t pureEliminations = 0;
    std::size_t unitPureSweeps = 0;     ///< Theorem-6 sweeps
    double unitPureMilliseconds = 0.0;  ///< time in the unit/pure passes
    std::size_t droppedUnsupported = 0; ///< prefix vars absent from the matrix
    std::size_t fraigRuns = 0;
    std::size_t peakConeSize = 0;
};

class AigQbfSolver {
public:
    explicit AigQbfSolver(AigQbfOptions opts = {}) : opts_(opts) {}

    /// Decide the closed QBF `prefix : matrix`.  Free matrix variables (in
    /// the support but not the prefix) are treated as outermost
    /// existentials.
    SolveResult solve(Aig& aig, AigEdge matrix, QbfPrefix prefix);

    const AigQbfStats& stats() const { return stats_; }

private:
    AigQbfOptions opts_;
    AigQbfStats stats_;
};

} // namespace hqs
