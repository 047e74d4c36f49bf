#ifndef CHAINSPLIT_TERM_UNIFY_H_
#define CHAINSPLIT_TERM_UNIFY_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "term/term.h"

namespace chainsplit {

/// A set of variable bindings built up during unification. Bindings may
/// be triangular (a variable bound to a term containing other bound
/// variables); Resolve() applies them to fixpoint.
class Substitution {
 public:
  /// Follows variable->variable chains starting at `t` and returns the
  /// first non-variable term or unbound variable reached.
  TermId Walk(TermId t, const TermPool& pool) const;

  /// Binds variable `var` to `term`. Requires `var` to be an unbound
  /// variable (after Walk).
  void Bind(TermId var, TermId term);

  /// Applies the substitution to `t`, rebuilding compound terms as
  /// needed. The result is interned in `pool`. Iterative: a binding
  /// chain as deep as a long list needs no native stack.
  TermId Resolve(TermId t, TermPool& pool) const;

  /// Binding for `var` if present, else kNullTerm. Does not walk chains.
  TermId Lookup(TermId var) const;

  bool empty() const { return bindings_.empty(); }
  size_t size() const { return bindings_.size(); }
  void clear() {
    bindings_.clear();
    log_.clear();
  }

  const std::unordered_map<TermId, TermId>& bindings() const {
    return bindings_;
  }

  /// Backtracking support: every Bind is logged; RollbackTo(mark)
  /// removes all bindings made after `mark = LogSize()` was taken.
  size_t LogSize() const { return log_.size(); }
  void RollbackTo(size_t mark);

 private:
  std::unordered_map<TermId, TermId> bindings_;
  std::vector<TermId> log_;
};

/// Unifies `a` and `b`, extending `*subst` with the most general
/// unifier. Loops, rather than recurses, on the last argument, so
/// unifying long lists needs no native stack. Returns false (leaving
/// `*subst` in an unspecified but valid state) when the terms do not
/// unify; callers that need rollback should unify into a scratch
/// Substitution.
///
/// `occurs_check` enables the occurs check; the engine leaves it off
/// (database terms are finite and rules are range-restricted), tests
/// turn it on to verify soundness.
bool Unify(const TermPool& pool, TermId a, TermId b, Substitution* subst,
           bool occurs_check = false);

/// True if variable `var` occurs in `t` under `subst`.
bool OccursIn(const TermPool& pool, const Substitution& subst, TermId var,
              TermId t);

/// Variable -> fresh variable pairs of one renaming. A rule has few
/// variables, so a linear scan beats hashing.
using Renaming = std::vector<std::pair<TermId, TermId>>;

/// Renames every variable of `t` to a fresh variable (recorded in
/// `*renaming` so shared variables stay shared). Used to standardize
/// rules apart before resolution.
TermId RenameApart(TermPool& pool, TermId t, Renaming* renaming);

}  // namespace chainsplit

#endif  // CHAINSPLIT_TERM_UNIFY_H_
