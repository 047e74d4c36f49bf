#ifndef CHAINSPLIT_ENGINE_TOPDOWN_H_
#define CHAINSPLIT_ENGINE_TOPDOWN_H_

#include <functional>
#include <memory>
#include <vector>

#include "ast/ast.h"
#include "common/deadline.h"
#include "common/status.h"
#include "rel/catalog.h"
#include "term/unify.h"

namespace chainsplit {

/// Options for the SLD evaluator.
struct TopDownOptions {
  /// Cap on the pending-goal list; exceeded => kResourceExhausted.
  /// Goals live on the heap, not the native stack, so this is the only
  /// bound on proof depth. Functional recursions on well-founded
  /// arguments (shrinking lists) stay far below it; a runaway recursion
  /// trips it.
  int64_t max_depth = 100000;
  /// Total goal expansions cap.
  int64_t max_steps = 200000000;
  /// Stop after this many solutions.
  int64_t max_solutions = 1000000000;

  /// Cooperative cancellation/deadline token, checked once per 1024
  /// goal expansions (a clock read per SLD step would dominate the
  /// resolution loop). Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

struct TopDownStats {
  int64_t steps = 0;
  int64_t solutions = 0;
  int64_t deepest = 0;
};

/// Plain SLD resolution (top-down, leftmost selection, depth-first)
/// over an EvalDb: rules from the program, EDB facts from relations,
/// builtins evaluated natively.
///
/// The prover is an iterative machine over goal lists and choice
/// points (the form Brass's bottom-up simulation of SLD-resolution
/// starts from): pending goals are a linked continuation in a heap
/// arena, and backtracking truncates the arena and the binding trail to
/// the marks of the newest choice point. It runs on the caller's
/// thread with no native recursion, so proof depth never depends on the
/// caller's stack size.
///
/// This is the *reference evaluator* for functional recursions (§4 of
/// the paper): `isort`, `qsort`, `append` terminate top-down because
/// their recursion is well-founded on a shrinking list argument. It is
/// not tabled — queries over cyclic EDB data should use the bottom-up
/// evaluators; the caps in TopDownOptions turn accidental loops into
/// kResourceExhausted errors.
class TopDownEvaluator {
 public:
  explicit TopDownEvaluator(EvalDb* db,
                            TopDownOptions options = TopDownOptions());
  ~TopDownEvaluator();

  /// Proves `goals` left-to-right; invokes `on_solution` for every
  /// proof with the final substitution (resolve your variables of
  /// interest against it). The evaluator reads each predicate's rules
  /// once and keeps them, so the program's rules must not change during
  /// its lifetime. `on_solution` must not call Solve on the same
  /// evaluator: the running proof's arenas are the evaluator's own.
  Status Solve(const std::vector<Atom>& goals,
               const std::function<void(const Substitution&)>& on_solution);

  /// Convenience: all bindings of `vars` over the solutions of `goals`,
  /// deduplicated, in discovery order.
  StatusOr<std::vector<std::vector<TermId>>> Answers(
      const std::vector<Atom>& goals, const std::vector<TermId>& vars);

  const TopDownStats& stats() const { return stats_; }

 private:
  class Impl;

  EvalDb* db_;
  TopDownOptions options_;
  TopDownStats stats_;
  std::unique_ptr<Impl> impl_;  // per-predicate cache + reusable arenas
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_ENGINE_TOPDOWN_H_
