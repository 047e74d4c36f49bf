#include "term/unify.h"

namespace chainsplit {

TermId Substitution::Walk(TermId t, const TermPool& pool) const {
  while (pool.IsVariable(t)) {
    auto it = bindings_.find(t);
    if (it == bindings_.end()) return t;
    t = it->second;
  }
  return t;
}

void Substitution::Bind(TermId var, TermId term) {
  CS_DCHECK(bindings_.find(var) == bindings_.end())
      << "rebinding a bound variable";
  bindings_.emplace(var, term);
  log_.push_back(var);
}

void Substitution::RollbackTo(size_t mark) {
  CS_DCHECK(mark <= log_.size()) << "rollback mark from the future";
  while (log_.size() > mark) {
    bindings_.erase(log_.back());
    log_.pop_back();
  }
}

TermId Substitution::Lookup(TermId var) const {
  auto it = bindings_.find(var);
  return it == bindings_.end() ? kNullTerm : it->second;
}

TermId Substitution::Resolve(TermId t, TermPool& pool) const {
  t = Walk(t, pool);
  if (!pool.IsCompound(t) || pool.IsGround(t)) return t;
  // Post-order over an explicit stack: `out` holds the resolved
  // arguments of every open frame, each frame's from `base` on.
  struct Frame {
    TermId term;
    size_t next;
    size_t base;
    bool changed;
  };
  std::vector<Frame> frames = {{t, 0, 0, false}};
  std::vector<TermId> out;
  TermId result = kNullTerm;
  while (!frames.empty()) {
    Frame& frame = frames.back();
    auto args = pool.args(frame.term);
    if (frame.next < args.size()) {
      TermId arg = args[frame.next++];
      TermId walked = Walk(arg, pool);
      if (pool.IsCompound(walked) && !pool.IsGround(walked)) {
        frames.push_back({walked, 0, out.size(), false});
      } else {
        frame.changed = frame.changed || walked != arg;
        out.push_back(walked);
      }
      continue;
    }
    result = frame.term;
    if (frame.changed) {
      // functor(t) returns a reference into the pool's name table which
      // can be invalidated by interning; copy before MakeCompound.
      std::string functor = pool.functor(frame.term);
      result = pool.MakeCompound(
          functor, std::span<const TermId>(out.data() + frame.base,
                                           out.size() - frame.base));
    }
    out.resize(frame.base);
    frames.pop_back();
    if (!frames.empty()) {
      Frame& parent = frames.back();
      parent.changed =
          parent.changed || result != pool.args(parent.term)[parent.next - 1];
      out.push_back(result);
    }
  }
  return result;
}

bool OccursIn(const TermPool& pool, const Substitution& subst, TermId var,
              TermId t) {
  t = subst.Walk(t, pool);
  if (t == var) return true;
  if (!pool.IsCompound(t)) return false;
  for (TermId a : pool.args(t)) {
    if (OccursIn(pool, subst, var, a)) return true;
  }
  return false;
}

bool Unify(const TermPool& pool, TermId a, TermId b, Substitution* subst,
           bool occurs_check) {
  for (;;) {
    a = subst->Walk(a, pool);
    b = subst->Walk(b, pool);
    if (a == b) return true;
    if (pool.IsVariable(a)) {
      if (occurs_check && OccursIn(pool, *subst, a, b)) return false;
      subst->Bind(a, b);
      return true;
    }
    if (pool.IsVariable(b)) {
      if (occurs_check && OccursIn(pool, *subst, b, a)) return false;
      subst->Bind(b, a);
      return true;
    }
    if (!pool.IsCompound(a) || !pool.IsCompound(b)) {
      // Distinct ground atomic terms (hash-consing guarantees a != b
      // means structural difference).
      return false;
    }
    if (pool.functor(a) != pool.functor(b)) return false;
    auto args_a = pool.args(a);
    auto args_b = pool.args(b);
    if (args_a.size() != args_b.size()) return false;
    if (args_a.empty()) return true;
    const size_t last = args_a.size() - 1;
    for (size_t i = 0; i < last; ++i) {
      if (!Unify(pool, args_a[i], args_b[i], subst, occurs_check)) {
        return false;
      }
    }
    a = args_a[last];
    b = args_b[last];
  }
}

TermId RenameApart(TermPool& pool, TermId t, Renaming* renaming) {
  switch (pool.kind(t)) {
    case TermKind::kInt:
    case TermKind::kSymbol:
      return t;
    case TermKind::kVariable: {
      for (const auto& [var, fresh] : *renaming) {
        if (var == t) return fresh;
      }
      TermId fresh = pool.FreshVariable(pool.name(t));
      renaming->emplace_back(t, fresh);
      return fresh;
    }
    case TermKind::kCompound: {
      if (pool.IsGround(t)) return t;
      std::vector<TermId> renamed;
      auto args = pool.args(t);
      renamed.reserve(args.size());
      for (TermId a : args) renamed.push_back(RenameApart(pool, a, renaming));
      std::string functor = pool.functor(t);
      return pool.MakeCompound(functor, renamed);
    }
  }
  return t;
}

}  // namespace chainsplit
