// Theorem 5 of the paper applied to the Theorem-6 detections, batched per
// sweep: the unit/pure elimination step shared by the DQBF main loop
// (HqsSolver) and the QBF backend (AigQbfSolver).
//
// Each round runs one Aig::detectUnitPure sweep.  A universal unit makes
// the formula false.  Otherwise every existential unit, every existential
// pure variable (fixed to its helpful value) and every universal pure
// variable (fixed to its harmful value) goes into one Substitution, and a
// single Aig::substitute applies them all.  Rounds repeat until a sweep
// finds nothing to eliminate.
//
// Batching is sound because fixing other variables to constants preserves
// both properties Theorem 5 relies on: if phi -> v (v is unit) then
// phi[c/u] -> v for every u != v, and a phi monotone (or antitone) in v
// stays so under phi[c/u].  So applying the literals of one sweep one at a
// time, in any order, is sound step by step, and that sequence yields the
// same matrix as the simultaneous substitution.  A variable that is both a
// positive and a negative unit enters the batch once (as true); the
// negative-unit path then folds the matrix to false, which is the correct
// verdict since phi -> v and phi -> !v.  The Skolem functions recorded
// for eliminated existentials are constants, which do not depend on the
// order they were recorded in.
#pragma once

#include <cstddef>
#include <functional>

#include "src/aig/aig.hpp"

namespace hqs {

/// Quantifier of a matrix variable as the caller's prefix sees it.
/// `Free` variables (not in the prefix) are never eliminated.
enum class UnitPureQuant { Exists, Forall, Free };

/// Caller-specific parts of the pass.
struct UnitPureHooks {
    /// Quantifier of a support variable of the matrix.
    std::function<UnitPureQuant(Var)> quantOf;
    /// Called once for every variable the current round fixes, before the
    /// round's substitution: remove @p v from the prefix and, for an
    /// existential, record its Skolem constant @p value.
    std::function<void(Var v, UnitPureQuant q, bool value)> eliminate;
    /// Called before every sweep; may garbage-collect (the matrix edge is
    /// the caller's, so a collection rewires it).  Return false to stop,
    /// e.g. when the deadline has expired.
    std::function<bool()> beforeSweep;
};

struct UnitPureOutcome {
    bool universalUnit = false; ///< a universal is unit: the formula is false
    std::size_t sweeps = 0;
    std::size_t unitEliminations = 0;
    std::size_t pureEliminations = 0;
    double milliseconds = 0.0;
};

/// Eliminate unit and pure variables from @p matrix in place, batched per
/// sweep (see the file comment).  Timed under the "phase.unit_pure.us"
/// phase; each sweep adds one to the "hqs.unit_pure.sweeps" counter.
UnitPureOutcome eliminateUnitPure(Aig& aig, AigEdge& matrix, const UnitPureHooks& hooks);

} // namespace hqs
