// A CNF formula: a conjunction of clauses over variables 0..numVars()-1.
#pragma once

#include <iosfwd>
#include <vector>

#include "src/base/literal.hpp"
#include "src/cnf/clause.hpp"

namespace hqs {

/// A conjunction of clauses.  Tracks the number of variables; addClause
/// grows it as needed.  Tautological clauses are dropped on insertion.
class Cnf {
public:
    Cnf() = default;
    explicit Cnf(Var numVars) : numVars_(numVars) {}

    Var numVars() const { return numVars_; }
    /// Ensure the variable range covers at least @p n variables.
    void ensureVars(Var n)
    {
        if (n > numVars_) numVars_ = n;
    }
    /// Allocate and return a fresh variable.
    Var newVar() { return numVars_++; }

    /// Add a clause (normalized; tautologies are silently dropped).
    /// Returns false iff the clause was a tautology.
    bool addClause(Clause c);
    bool addClause(std::initializer_list<Lit> lits) { return addClause(Clause(lits)); }

    std::size_t numClauses() const { return clauses_.size(); }
    const Clause& clause(std::size_t i) const { return clauses_[i]; }
    const std::vector<Clause>& clauses() const { return clauses_; }
    std::vector<Clause>& clauses() { return clauses_; }

    bool hasEmptyClause() const;

    /// Evaluate under a total assignment (indexed by variable).
    bool evaluate(const std::vector<bool>& assignment) const;

    auto begin() const { return clauses_.begin(); }
    auto end() const { return clauses_.end(); }

    bool operator==(const Cnf&) const = default;

private:
    Var numVars_ = 0;
    std::vector<Clause> clauses_;
};

std::ostream& operator<<(std::ostream& os, const Cnf& f);

} // namespace hqs
