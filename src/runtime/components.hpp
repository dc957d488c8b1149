// Variable-connected component decomposition: the one HQS solve path every
// front end shares (dqbf_solve, dqbf_batch, the service's cold hqs/hqs-bdd
// path, and solve sessions).
//
// Theorem-1/2 elimination rebuilds the whole matrix cone at every step, so
// a formula made of independent parts pays for their interleaving in one
// AIG.  Splitting on variable-connected components (a clause connects the
// variables it mentions) is the coarsest case of quantifier localization:
// each quantifier is eliminated only inside the part of the matrix that
// uses it.  Every component becomes a self-contained DQBF over a dense
// local numbering, with dependency sets restricted to the component's
// universals — sound in both directions, because a universal that never
// occurs in a component's matrix can neither help nor hurt its Skolem
// functions — and is solved by its own HqsSolver under the request's
// deadline and its own live-node budget (HqsOptions::nodeLimit is per
// component).
//
// Verdicts combine by the DQBF conjunction rule over disjoint variable
// sets: Unsat if any component is Unsat (the loop stops there), Sat when
// all are Sat, otherwise the worst inconclusive outcome in the order
// Memout, Timeout, Unknown.  On a certifying Sat solve the per-component
// Skolem AIGs are imported into one manager, their local inputs mapped back
// to the formula's numbering, and the merged certificate binds to the whole
// formula exactly like a monolithic solve's.
//
// A formula with at most one component takes the monolithic path: one
// HqsSolver on the formula as given, no renumbering, no extra rendering.
//
// Sessions pass a ComponentMemo: every component (even a lone one) is then
// keyed by its cache::canonicalKey and answered from the memo when a
// conclusive result for it is already known.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/base/result.hpp"
#include "src/cache/canonical.hpp"
#include "src/cert/certificate.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/dqbf/hqs_solver.hpp"
#include "src/dqbf/skolem_recorder.hpp"

namespace hqs {

/// One variable-connected component, renumbered densely.
struct FormulaComponent {
    std::vector<Var> vars; ///< global variables ascending; local v is vars[v]
    ParsedQdimacs local;   ///< self-contained DQBF over the local numbering
};

/// Split @p f into its variable-connected components, ordered by smallest
/// variable (deterministic, so local numberings are stable across calls).
/// Variables that occur in no clause belong to no component; empty clauses
/// are ignored.
std::vector<FormulaComponent> splitComponents(const ParsedQdimacs& f);

/// Conclusive component results keyed by canonical key: a session's memo
/// across deltas.  Entries never go stale — the key is the component's
/// content up to renaming.
struct ComponentMemo {
    struct Entry {
        SolveResult result = SolveResult::Unknown;
        std::int64_t peakNodes = 0; ///< what re-solving it would cost again
        /// Skolem functions of a certifying Sat solve, over the numbering of
        /// @ref local.  Reuse for a certificate requires the component to
        /// equal @ref local exactly: the key identifies it only up to
        /// renaming.
        std::optional<AigSkolemCertificate> skolem;
        ParsedQdimacs local; ///< set only alongside @ref skolem
    };
    std::unordered_map<cache::CanonicalKey, Entry> entries;
};

struct ComponentSolveOutcome {
    SolveResult result = SolveResult::Unknown;
    std::size_t components = 0;       ///< variable-connected components
    std::size_t reusedComponents = 0; ///< answered from the memo
    std::int64_t coneNodesSaved = 0;  ///< peak-node work skipped via reuse
    /// HqsStats of the components solved, aggregated: counts and ms are
    /// summed, peaks are maxima, decidedBy lists the distinct stages.
    HqsStats stats;
    /// Certificate of a certifying (HqsOptions::computeSkolem) Sat solve,
    /// bound to the whole formula; nullopt when a Skolem trace was missing.
    std::optional<cert::Certificate> certificate;
    double certificateMilliseconds = 0.0; ///< extraction or merge time
};

/// Decide @p f component by component with HqsSolver(@p opts), consulting
/// and filling @p memo when one is given.
ComponentSolveOutcome solveByComponents(const ParsedQdimacs& f, const HqsOptions& opts,
                                        ComponentMemo* memo = nullptr);

} // namespace hqs
