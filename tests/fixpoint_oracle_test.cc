// Differential test of the bottom-up fixpoint against a naive oracle.
//
// Seeded random multi-SCC programs (several independent recursions,
// mutual and nonlinear recursion, same-generation shapes, one top
// stratum joining them) are evaluated twice: by SemiNaiveEvaluate over
// the rectified rules, and by an oracle that lives only in this file —
// every rule applied to the full relations, by nested-loop matching
// over string tuples, until nothing changes. The two must agree as
// sets on every predicate. A subset of the programs also goes through
// QueryService::Query (bypassing the result cache), so the planner's
// magic rewriting and the per-query overlay are checked against the
// same oracle.

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/rectify.h"
#include "engine/seminaive.h"
#include "rel/catalog.h"
#include "service/query_service.h"

namespace chainsplit {
namespace {

// ---------------------------------------------------------------------
// Program model shared by the generator and the oracle.

struct OAtom {
  std::string pred;
  std::vector<std::string> args;  // capitalized = variable
};

struct ORule {
  OAtom head;
  std::vector<OAtom> body;
};

struct OProgram {
  std::vector<OAtom> facts;
  std::vector<ORule> rules;
};

using OTuple = std::vector<std::string>;
using OFacts = std::map<std::string, std::set<OTuple>>;

bool IsVar(const std::string& arg) {
  return std::isupper(static_cast<unsigned char>(arg[0])) != 0;
}

std::string AtomText(const OAtom& atom) {
  std::string out = atom.pred + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += atom.args[i];
  }
  return out + ")";
}

std::string ProgramText(const OProgram& program) {
  std::string out;
  for (const OAtom& fact : program.facts) out += AtomText(fact) + ".\n";
  for (const ORule& rule : program.rules) {
    out += AtomText(rule.head) + " :- ";
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += AtomText(rule.body[i]);
    }
    out += ".\n";
  }
  return out;
}

// ---------------------------------------------------------------------
// The oracle: naive bottom-up evaluation to fixpoint.

/// Extends `binding` over body literals [i, end) against `facts`,
/// calling `emit` once per complete binding.
void Match(const std::vector<OAtom>& body, size_t i, const OFacts& facts,
           std::map<std::string, std::string>* binding,
           const std::function<void()>& emit) {
  if (i == body.size()) {
    emit();
    return;
  }
  const OAtom& literal = body[i];
  auto rel = facts.find(literal.pred);
  if (rel == facts.end()) return;
  for (const OTuple& tuple : rel->second) {
    std::map<std::string, std::string> saved = *binding;
    bool ok = true;
    for (size_t c = 0; c < tuple.size() && ok; ++c) {
      const std::string& arg = literal.args[c];
      if (!IsVar(arg)) {
        ok = arg == tuple[c];
      } else {
        auto [it, fresh] = binding->emplace(arg, tuple[c]);
        ok = fresh || it->second == tuple[c];
      }
    }
    if (ok) Match(body, i + 1, facts, binding, emit);
    *binding = std::move(saved);
  }
}

OFacts NaiveFixpoint(const OProgram& program) {
  OFacts facts;
  for (const OAtom& fact : program.facts) {
    facts[fact.pred].insert(fact.args);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ORule& rule : program.rules) {
      std::vector<OTuple> derived;
      std::map<std::string, std::string> binding;
      Match(rule.body, 0, facts, &binding, [&] {
        OTuple tuple;
        for (const std::string& arg : rule.head.args) {
          tuple.push_back(IsVar(arg) ? binding.at(arg) : arg);
        }
        derived.push_back(std::move(tuple));
      });
      for (OTuple& tuple : derived) {
        changed |= facts[rule.head.pred].insert(std::move(tuple)).second;
      }
    }
  }
  return facts;
}

// ---------------------------------------------------------------------
// Generator.

OAtom A(std::string pred, std::vector<std::string> args) {
  return OAtom{std::move(pred), std::move(args)};
}

std::string Node(const std::string& prefix, int i) {
  return StrCat(prefix, i);
}

/// Generates a random multi-SCC program: several disjoint linear
/// recursions (tc0..tcN over their own edge relations, some with back
/// edges that close cycles, some with a pre-seeded IDB fact), a
/// mutually recursive pair, a nonlinear closure, one same-generation
/// component, one split-chain same-generation component, and top
/// rules joining them through a bridge relation. Each recursion is its
/// own SCC, so the condensation has independent middle strata feeding
/// one final stratum. Sizes are drawn from `rng`: deterministic per
/// seed, varied across seeds.
OProgram MultiSccProgram(std::mt19937* rng) {
  auto pick = [rng](int lo, int hi) {  // uniform in [lo, hi]
    return lo + static_cast<int>((*rng)() % (hi - lo + 1));
  };
  OProgram p;
  const int chains = pick(2, 4);
  int first_len = 0;
  for (int c = 0; c < chains; ++c) {
    const std::string e = StrCat("e", c);
    const std::string tc = StrCat("tc", c);
    const std::string node = StrCat("m", c, "x");
    const int len = pick(4, 15);
    if (c == 0) first_len = len;
    for (int j = 0; j < len; ++j) {
      p.facts.push_back(A(e, {Node(node, j), Node(node, j + 1)}));
    }
    if (pick(0, 2) == 0) {  // a back edge: the closure becomes cyclic
      p.facts.push_back(A(e, {Node(node, pick(1, len)), Node(node, 0)}));
    }
    if (pick(0, 3) == 0) {  // an IDB fact next to the rules
      p.facts.push_back(A(tc, {Node(node, len), StrCat("extra", c)}));
    }
    p.rules.push_back({A(tc, {"X", "Y"}), {A(e, {"X", "Y"})}});
    p.rules.push_back(
        {A(tc, {"X", "Y"}), {A(e, {"X", "Z"}), A(tc, {"Z", "Y"})}});
  }

  // Mutual recursion over e1: odd/even path lengths.
  p.rules.push_back({A("odd", {"X", "Y"}), {A("e1", {"X", "Y"})}});
  p.rules.push_back(
      {A("odd", {"X", "Y"}), {A("even", {"X", "Z"}), A("e1", {"Z", "Y"})}});
  p.rules.push_back(
      {A("even", {"X", "Y"}), {A("odd", {"X", "Z"}), A("e1", {"Z", "Y"})}});

  // Nonlinear closure over a small random graph, plus a diagonal rule
  // (repeated variable) reading it.
  const int graph_nodes = pick(3, 7);
  const int graph_edges = pick(3, 10);
  for (int k = 0; k < graph_edges; ++k) {
    p.facts.push_back(A("g", {Node("v", pick(0, graph_nodes - 1)),
                              Node("v", pick(0, graph_nodes - 1))}));
  }
  p.rules.push_back({A("path", {"X", "Y"}), {A("g", {"X", "Y"})}});
  p.rules.push_back({A("path", {"X", "Y"}),
                     {A("path", {"X", "Z"}), A("path", {"Z", "Y"})}});
  p.rules.push_back({A("cyclic", {"X"}), {A("path", {"X", "X"})}});

  // Same-generation over a random tree: children cK hang off parent
  // p0, grandchildren gK off random children; sib seeds the recursion
  // at the child generation.
  const int kids = pick(2, 4);
  for (int k = 0; k < kids; ++k) {
    p.facts.push_back(A("par", {Node("c", k), "p0"}));
  }
  const int grand = pick(2, 5);
  for (int g = 0; g < grand; ++g) {
    p.facts.push_back(A("par", {Node("g", g), Node("c", pick(0, kids - 1))}));
  }
  p.facts.push_back(A("sib", {"c0", "c1"}));
  p.facts.push_back(A("sib", {"c1", "c0"}));
  p.rules.push_back({A("sg", {"X", "Y"}), {A("sib", {"X", "Y"})}});
  p.rules.push_back({A("sg", {"X", "Y"}),
                     {A("par", {"X", "X1"}), A("sg", {"X1", "Y1"}),
                      A("par", {"Y", "Y1"})}});

  // Split-chain same generation: up chain x0..xk, flat(xk, yk), down
  // facts mirroring the up chain, so scsg(xi, yi) holds for all i.
  const int k = pick(3, 10);
  for (int i = 0; i < k; ++i) {
    p.facts.push_back(A("up", {Node("x", i), Node("x", i + 1)}));
    p.facts.push_back(A("down", {Node("y", i + 1), Node("y", i)}));
  }
  p.facts.push_back(A("flat", {Node("x", k), Node("y", k)}));
  p.rules.push_back({A("scsg", {"X", "Y"}), {A("flat", {"X", "Y"})}});
  p.rules.push_back({A("scsg", {"X", "Y"}),
                     {A("up", {"X", "Z"}), A("scsg", {"Z", "W"}),
                      A("down", {"W", "Y"})}});

  // Top stratum: depends on tc0, sg, scsg and path, so it can only
  // complete after all of them; one rule carries a body constant.
  p.facts.push_back(A("link", {Node("m0x", first_len), "g0"}));
  p.rules.push_back({A("top", {"X", "Y"}),
                     {A("tc0", {"X", "Z"}), A("link", {"Z", "W"}),
                      A("sg", {"W", "Y"})}});
  p.rules.push_back({A("top", {"X", "Y"}), {A("scsg", {"X", "Y"})}});
  p.rules.push_back(
      {A("top", {"X", "Y"}), {A("path", {"v0", "X"}), A("g", {"X", "Y"})}});
  return p;
}

// ---------------------------------------------------------------------
// Engine side.

std::set<OTuple> EngineRelation(const Database& db, const std::string& pred,
                                int arity) {
  std::set<OTuple> out;
  std::optional<PredId> id = db.program().preds().Find(pred, arity);
  if (!id.has_value()) return out;
  const Relation* rel = db.GetRelation(*id);
  if (rel == nullptr) return out;
  for (int64_t i = 0; i < rel->num_rows(); ++i) {
    OTuple tuple;
    for (TermId t : rel->row(i)) tuple.push_back(db.pool().ToString(t));
    out.insert(std::move(tuple));
  }
  return out;
}

/// Predicates of `program` with their arities: every one when
/// `with_edb`, else only rule heads.
std::map<std::string, int> Predicates(const OProgram& program,
                                      bool with_edb) {
  std::map<std::string, int> preds;
  if (with_edb) {
    for (const OAtom& fact : program.facts) {
      preds[fact.pred] = static_cast<int>(fact.args.size());
    }
  }
  for (const ORule& rule : program.rules) {
    preds[rule.head.pred] = static_cast<int>(rule.head.args.size());
  }
  return preds;
}

/// The oracle's relation for `pred` (empty if it derived nothing).
std::set<OTuple> OracleRelation(const OFacts& facts, const std::string& pred) {
  auto it = facts.find(pred);
  return it == facts.end() ? std::set<OTuple>() : it->second;
}

constexpr int kPrograms = 300;
constexpr int kServiceEvery = 5;  // every 5th program also via service

TEST(FixpointOracleTest, SemiNaiveMatchesNaiveOracle) {
  int64_t total_tuples = 0;
  for (int seed = 0; seed < kPrograms; ++seed) {
    std::mt19937 rng(seed);
    const OProgram program = MultiSccProgram(&rng);
    const std::string text = ProgramText(program);
    const OFacts expected = NaiveFixpoint(program);

    Database db;
    ASSERT_TRUE(ParseProgram(text, &db.program()).ok()) << text;
    ASSERT_TRUE(db.LoadProgramFacts().ok());
    std::vector<Rule> rectified = RectifyRules(&db.program());
    SemiNaiveStats stats;
    Status status = SemiNaiveEvaluate(&db, rectified, {}, &stats);
    ASSERT_TRUE(status.ok()) << status << "\nseed " << seed;

    for (const auto& [pred, arity] : Predicates(program, true)) {
      const std::set<OTuple> oracle = OracleRelation(expected, pred);
      EXPECT_EQ(EngineRelation(db, pred, arity), oracle)
          << "seed " << seed << " pred " << pred << "\n"
          << text;
      total_tuples += static_cast<int64_t>(oracle.size());
    }
    ASSERT_FALSE(HasFailure()) << "first failing seed " << seed;
  }
  // The generator must keep producing non-trivial fixpoints.
  EXPECT_GT(total_tuples, kPrograms * 100);
}

/// Formats the oracle's answers to `?- pred(first, Y).` (first bound)
/// or `?- pred(X, Y).` the way QueryService renders rows.
std::set<std::vector<std::string>> OracleAnswers(const std::set<OTuple>& rel,
                                                 const std::string* first) {
  std::set<std::vector<std::string>> rows;
  for (const OTuple& tuple : rel) {
    if (first == nullptr) {
      rows.insert(tuple);
    } else if (tuple[0] == *first) {
      rows.insert(OTuple(tuple.begin() + 1, tuple.end()));
    }
  }
  return rows;
}

std::string QueryText(const std::string& pred, int arity,
                      const std::string* first) {
  static const char* const kVars[] = {"X", "Y"};
  std::string out = "?- " + pred + "(";
  for (int c = 0; c < arity; ++c) {
    if (c > 0) out += ", ";
    out += (c == 0 && first != nullptr) ? *first : kVars[c];
  }
  return out + ").";
}

TEST(FixpointOracleTest, ServiceQueriesMatchNaiveOracle) {
  int queries = 0;
  for (int seed = 0; seed < kPrograms; seed += kServiceEvery) {
    std::mt19937 rng(seed);
    const OProgram program = MultiSccProgram(&rng);
    const std::string text = ProgramText(program);
    const OFacts expected = NaiveFixpoint(program);

    QueryService service;
    UpdateResponse loaded = service.Update(text);
    ASSERT_TRUE(loaded.status.ok()) << loaded.status;
    RequestOptions request;
    request.bypass_cache = true;

    for (const auto& [pred, arity] : Predicates(program, false)) {
      const std::set<OTuple> rel = OracleRelation(expected, pred);
      // Free query, then one bound on the first argument of some
      // derived tuple (or on a constant with no answers).
      const std::string first =
          rel.empty() ? "nowhere" : rel.begin()->at(0);
      for (const std::string* bound :
           {static_cast<const std::string*>(nullptr), &first}) {
        const std::string query = QueryText(pred, arity, bound);
        QueryResponse response = service.Query(query, request);
        ASSERT_TRUE(response.status.ok())
            << response.status << "\nseed " << seed << " " << query;
        std::set<std::vector<std::string>> got(response.rows.begin(),
                                               response.rows.end());
        EXPECT_EQ(got, OracleAnswers(rel, bound))
            << "seed " << seed << " " << query << "\n"
            << text;
        ++queries;
      }
    }
    ASSERT_FALSE(HasFailure()) << "first failing seed " << seed;
  }
  EXPECT_GT(queries, 0);
}

}  // namespace
}  // namespace chainsplit
