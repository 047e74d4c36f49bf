#include "engine/topdown.h"

#include <span>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "engine/builtins.h"
#include "rel/relation.h"

namespace chainsplit {

/// The SLD machine. One Impl serves every Solve() of its evaluator and
/// keeps its arenas between calls, so the many small proofs of the
/// chain-split evaluators allocate nothing once warm.
///
/// State of a running proof:
/// - `goals_`/`args_`: an arena of goal nodes. The pending goals are the
///   linked list starting at the current continuation; a rule's body is
///   pushed in front of the continuation it resolves, sharing the tail.
/// - `choices_`: one choice point per resolved non-builtin goal that may
///   still have alternatives: the remaining fact rows (a live scan
///   cursor, or a range of `rows_` holding the probe's matches in probe
///   order), then the remaining rules. Resuming one rolls the trail and
///   the arena back to its marks.
/// Builtins are deterministic and leave no choice point.
class TopDownEvaluator::Impl {
 public:
  explicit Impl(EvalDb* db)
      : db_(db), pool_(db->pool()), preds_(db->program().preds()) {}

  Status Solve(const std::vector<Atom>& goals,
               const std::function<void(const Substitution&)>& on_solution,
               const TopDownOptions& options, TopDownStats* stats) {
    CS_DCHECK(!running_);  // on_solution must not re-enter Solve
    running_ = true;
    options_ = &options;
    stats_ = stats;
    int64_t cont = kNil;
    for (size_t i = goals.size(); i-- > 0;) {
      cont = PushGoal(goals[i].pred, goals[i].args, cont);
    }
    Status status = Run(cont, on_solution);
    subst_.RollbackTo(0);
    goals_.clear();
    args_.clear();
    choices_.clear();
    rows_.clear();
    resolved_.clear();
    running_ = false;
    return status;
  }

 private:
  static constexpr int64_t kNil = -1;

  struct Goal {
    PredId pred;
    int32_t arity;
    int64_t args;   // offset into args_
    int64_t next;   // rest of the continuation, or kNil
    int64_t depth;  // goals in the continuation starting here
  };

  struct ChoicePoint {
    int64_t goal;  // the resolved goal node (below goals_mark)
    size_t trail;
    size_t goals_mark;
    size_t args_mark;
    size_t rows_mark;      // rows_/resolved_ sizes before this point
    size_t resolved_mark;  // == offset of the goal's resolved args
    const Relation* rel;   // null once the fact rows are exhausted
    bool scan;             // cursor over all rows, else over rows_
    int64_t row;
    int64_t row_end;
    size_t rule;  // next rule of the goal's predicate
  };

  struct PredInfo {
    bool known = false;
    bool builtin = false;
    std::vector<const Rule*> rules;
  };

  bool Done() const { return stats_->solutions >= options_->max_solutions; }

  const PredInfo& Info(PredId pred) {
    if (static_cast<size_t>(pred) >= info_.size()) info_.resize(pred + 1);
    PredInfo& info = info_[pred];
    if (!info.known) {
      info.known = true;
      info.builtin = IsBuiltinPred(preds_, pred);
      if (!info.builtin) info.rules = db_->program().RulesFor(pred);
    }
    return info;
  }

  int64_t PushGoal(PredId pred, std::span<const TermId> args, int64_t next) {
    const int64_t depth = next == kNil ? 1 : goals_[next].depth + 1;
    goals_.push_back(Goal{pred, static_cast<int32_t>(args.size()),
                          static_cast<int64_t>(args_.size()), next, depth});
    args_.insert(args_.end(), args.begin(), args.end());
    return static_cast<int64_t>(goals_.size()) - 1;
  }

  std::span<const TermId> Args(const Goal& goal) const {
    return {args_.data() + goal.args, static_cast<size_t>(goal.arity)};
  }

  /// Proves the continuation `cont`, then every alternative left on the
  /// choice-point stack, depth-first and leftmost.
  Status Run(int64_t cont,
             const std::function<void(const Substitution&)>& on_solution) {
    if (Done()) return Status::Ok();
    for (;;) {
      if (cont == kNil) {
        ++stats_->solutions;
        on_solution(subst_);
        if (Done() || !Resume(&cont)) return Status::Ok();
        continue;
      }
      if (++stats_->steps > options_->max_steps) {
        return ResourceExhaustedError(
            StrCat("top-down evaluation exceeded ", options_->max_steps,
                   " goal expansions"));
      }
      if ((stats_->steps & 1023) == 0) {
        CS_RETURN_IF_ERROR(CheckCancel(options_->cancel));
      }
      const Goal goal = goals_[cont];
      stats_->deepest = std::max(stats_->deepest, goal.depth);
      if (goal.depth > options_->max_depth) {
        return ResourceExhaustedError(
            StrCat("top-down goal stack exceeded depth ", options_->max_depth,
                   " (non-terminating recursion?)"));
      }

      if (Info(goal.pred).builtin) {
        bool ok = false;
        CS_RETURN_IF_ERROR(EvalBuiltin(pool_, preds_, goal.pred, Args(goal),
                                       &subst_, &ok));
        if (ok) {
          cont = goal.next;
        } else if (!Resume(&cont)) {
          return Status::Ok();
        }
        continue;
      }
      PushChoice(cont, goal);
      if (!Resume(&cont)) return Status::Ok();
    }
  }

  /// Records the alternatives of `goal`: matching fact rows first, then
  /// the predicate's rules in program order.
  void PushChoice(int64_t node, const Goal& goal) {
    ChoicePoint cp{node,
                   subst_.LogSize(),
                   goals_.size(),
                   args_.size(),
                   rows_.size(),
                   resolved_.size(),
                   nullptr,
                   false,
                   0,
                   0,
                   0};
    const Relation* rel = db_->GetRelation(goal.pred);
    if (rel != nullptr && !rel->empty()) {
      // Probe on the columns whose resolved goal argument is ground.
      bound_columns_.clear();
      key_.clear();
      for (int c = 0; c < goal.arity; ++c) {
        TermId resolved = subst_.Resolve(args_[goal.args + c], pool_);
        resolved_.push_back(resolved);
        if (pool_.IsGround(resolved)) {
          bound_columns_.push_back(c);
          key_.push_back(resolved);
        }
      }
      cp.rel = rel;
      if (bound_columns_.empty()) {
        cp.scan = true;
      } else {
        cp.row = static_cast<int64_t>(rows_.size());
        rel->ProbeEach(bound_columns_, key_.data(),
                       [&](int64_t i) { rows_.push_back(i); });
        cp.row_end = static_cast<int64_t>(rows_.size());
      }
    }
    choices_.push_back(cp);
  }

  void PopChoice() {
    rows_.resize(choices_.back().rows_mark);
    resolved_.resize(choices_.back().resolved_mark);
    choices_.pop_back();
  }

  /// Backtracks: takes the next alternative of the newest choice point
  /// that has one and sets `*cont` to the continuation it leads to.
  /// False when the search space is exhausted.
  bool Resume(int64_t* cont) {
    while (!choices_.empty()) {
      ChoicePoint& cp = choices_.back();
      subst_.RollbackTo(cp.trail);
      goals_.resize(cp.goals_mark);
      args_.resize(cp.args_mark);
      const Goal goal = goals_[cp.goal];

      while (cp.rel != nullptr) {
        int64_t i;
        if (cp.scan) {
          // Live bound, as rows may be added while the proof runs.
          if (cp.row >= cp.rel->num_rows()) break;
          i = cp.row++;
        } else {
          if (cp.row >= cp.row_end) break;
          i = rows_[cp.row++];
        }
        Relation::Row row = cp.rel->row(i);
        bool ok = true;
        for (size_t c = 0; c < row.size() && ok; ++c) {
          ok = Unify(pool_, resolved_[cp.resolved_mark + c], row[c], &subst_);
        }
        if (ok) {
          *cont = goal.next;
          return true;
        }
        subst_.RollbackTo(cp.trail);
      }
      cp.rel = nullptr;

      const std::vector<const Rule*>& rules = Info(goal.pred).rules;
      while (cp.rule < rules.size()) {
        const Rule* rule = rules[cp.rule++];
        // Standardize the rule apart.
        renaming_.clear();
        bool ok = true;
        for (int a = 0; a < goal.arity && ok; ++a) {
          TermId head_arg = RenameApart(pool_, rule->head.args[a], &renaming_);
          ok = Unify(pool_, args_[goal.args + a], head_arg, &subst_);
        }
        if (!ok) {
          subst_.RollbackTo(cp.trail);
          continue;
        }
        int64_t next = goal.next;
        for (size_t b = rule->body.size(); b-- > 0;) {
          const Atom& atom = rule->body[b];
          renamed_.clear();
          for (TermId arg : atom.args) {
            renamed_.push_back(RenameApart(pool_, arg, &renaming_));
          }
          next = PushGoal(atom.pred, renamed_, next);
        }
        // The last alternative needs no choice point: dropping it keeps
        // the stack flat along deterministic recursions.
        if (cp.rule == rules.size()) PopChoice();
        *cont = next;
        return true;
      }
      PopChoice();
    }
    return false;
  }

  EvalDb* db_;
  TermPool& pool_;
  const PredicateTable& preds_;
  // The running Solve's options and stats.
  const TopDownOptions* options_ = nullptr;
  TopDownStats* stats_ = nullptr;
  bool running_ = false;
  std::vector<PredInfo> info_;

  Substitution subst_;
  std::vector<Goal> goals_;
  std::vector<TermId> args_;
  std::vector<ChoicePoint> choices_;
  std::vector<int64_t> rows_;
  std::vector<TermId> resolved_;

  // Per-step scratch.
  std::vector<int> bound_columns_;
  std::vector<TermId> key_;
  std::vector<TermId> renamed_;
  Renaming renaming_;
};

TopDownEvaluator::TopDownEvaluator(EvalDb* db, TopDownOptions options)
    : db_(db), options_(options) {}

TopDownEvaluator::~TopDownEvaluator() = default;

Status TopDownEvaluator::Solve(
    const std::vector<Atom>& goals,
    const std::function<void(const Substitution&)>& on_solution) {
  if (impl_ == nullptr) impl_ = std::make_unique<Impl>(db_);
  return impl_->Solve(goals, on_solution, options_, &stats_);
}

StatusOr<std::vector<std::vector<TermId>>> TopDownEvaluator::Answers(
    const std::vector<Atom>& goals, const std::vector<TermId>& vars) {
  std::vector<std::vector<TermId>> answers;
  std::unordered_set<Tuple, TupleHash> seen;
  TermPool& pool = db_->pool();
  Status status = Solve(goals, [&](const Substitution& subst) {
    std::vector<TermId> row;
    row.reserve(vars.size());
    for (TermId v : vars) row.push_back(subst.Resolve(v, pool));
    if (seen.insert(row).second) answers.push_back(std::move(row));
  });
  CS_RETURN_IF_ERROR(status);
  return answers;
}

}  // namespace chainsplit
