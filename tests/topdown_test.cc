#include "engine/topdown.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <string>

#include "ast/parser.h"
#include "term/list_utils.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

class TopDownTest : public ::testing::Test {
 protected:
  void Load(std::string_view text) {
    ASSERT_TRUE(ParseProgram(text, &db_.program()).ok());
    ASSERT_TRUE(db_.LoadProgramFacts().ok());
  }

  /// Parses and solves a query, returning rows of its variables.
  std::vector<std::vector<TermId>> Ask(std::string_view query_text,
                                       TopDownOptions options = {}) {
    Program scratch(&db_.pool());
    size_t before = db_.program().queries().size();
    Status status = ParseProgram(query_text, &db_.program());
    EXPECT_TRUE(status.ok()) << status;
    const Query& query = db_.program().queries()[before];
    std::vector<TermId> vars;
    for (const Atom& goal : query.goals) {
      CollectAtomVariables(db_.pool(), goal, &vars);
    }
    TopDownEvaluator solver(&db_, options);
    auto answers = solver.Answers(query.goals, vars);
    EXPECT_TRUE(answers.ok()) << answers.status();
    last_stats_ = solver.stats();
    return answers.ok() ? *answers : std::vector<std::vector<TermId>>{};
  }

  /// Ask() with each row rendered as "t1 t2 ..." in discovery order.
  std::vector<std::string> AskText(std::string_view query_text,
                                   TopDownOptions options = {}) {
    std::vector<std::string> out;
    for (const auto& row : Ask(query_text, options)) {
      std::string line;
      for (TermId t : row) {
        if (!line.empty()) line += " ";
        line += db_.pool().ToString(t);
      }
      out.push_back(line);
    }
    return out;
  }

  Database db_;
  TopDownStats last_stats_;
};

void ExpectStats(const TopDownStats& stats, int64_t steps, int64_t solutions,
                 int64_t deepest) {
  EXPECT_EQ(stats.steps, steps);
  EXPECT_EQ(stats.solutions, solutions);
  EXPECT_EQ(stats.deepest, deepest);
}

using Rows = std::vector<std::string>;

// Pins: the exact answer order and step/solution/depth counts of the
// depth-first, leftmost SLD search (facts before rules, rules in program
// order). Any rewrite of the prover must reproduce them.
TEST_F(TopDownTest, PinsAppendForward) {
  Load(AppendProgramSource());
  EXPECT_EQ(AskText("?- append([1, 2, 3], [4, 5], W)."),
            (Rows{"[1, 2, 3, 4, 5]"}));
  ExpectStats(last_stats_, 4, 1, 1);
}

TEST_F(TopDownTest, PinsAppendAllSplits) {
  Load(AppendProgramSource());
  EXPECT_EQ(AskText("?- append(X, Y, [1, 2, 3])."),
            (Rows{"[] [1, 2, 3]", "[1] [2, 3]", "[1, 2] [3]", "[1, 2, 3] []"}));
  ExpectStats(last_stats_, 4, 4, 1);
}

TEST_F(TopDownTest, PinsFreshVariablesOfOpenAppend) {
  Load(AppendProgramSource());
  TopDownOptions options;
  options.max_solutions = 3;
  // Renamed-apart rule variables show up unbound in the answers, so the
  // order in which fresh variables are made is part of the output.
  EXPECT_EQ(AskText("?- append(X, [a], Z).", options),
            (Rows{"[] [a]", "[X#1] [X#1, a]", "[X#1, X#6] [X#1, X#6, a]"}));
  ExpectStats(last_stats_, 3, 3, 1);
}

TEST_F(TopDownTest, PinsIsort) {
  Load(IsortProgramSource());
  EXPECT_EQ(AskText("?- isort([5, 7, 1, 3, 5], Ys)."),
            (Rows{"[1, 3, 5, 5, 7]"}));
  ExpectStats(last_stats_, 32, 1, 6);
}

TEST_F(TopDownTest, PinsQsort) {
  Load(QsortProgramSource());
  EXPECT_EQ(AskText("?- qsort([4, 9, 5, 1, 4], Ys)."),
            (Rows{"[1, 4, 4, 5, 9]"}));
  ExpectStats(last_stats_, 42, 1, 7);
}

TEST_F(TopDownTest, PinsFareBoundedTravelOnCyclicNetwork) {
  // a -> b -> c -> a, b -> a and c -> b close cycles; the shrinking
  // budget is what makes the search finite.
  Load(R"(
flight(1, a, b, 100). flight(2, b, c, 150). flight(3, c, a, 120).
flight(4, b, a, 90). flight(5, a, c, 300). flight(6, c, b, 80).
trip(A, B, Budget, [N], F) :- flight(N, A, B, F), F =< Budget.
trip(A, B, Budget, [N|L], F) :- flight(N, A, C, F1), F1 =< Budget,
    R is Budget - F1, trip(C, B, R, L, F2), F is F1 + F2.
)");
  EXPECT_EQ(AskText("?- trip(a, c, 600, L, F)."),
            (Rows{"[5] 300", "[1, 2] 250", "[1, 2, 6, 2] 480", "[1, 4, 5] 490",
                  "[1, 4, 1, 2] 440", "[5, 6, 2] 530"}));
  ExpectStats(last_stats_, 207, 6, 11);
}

TEST_F(TopDownTest, PinsMaxSolutionsCutOff) {
  Load(AppendProgramSource());
  TopDownOptions options;
  options.max_solutions = 2;
  EXPECT_EQ(AskText("?- append(X, Y, [1, 2, 3, 4, 5]).", options),
            (Rows{"[] [1, 2, 3, 4, 5]", "[1] [2, 3, 4, 5]"}));
  ExpectStats(last_stats_, 2, 2, 1);
}

// A proof whose single branch is 50k resolution steps long, and one
// whose pending-goal list grows to 50k goals, both solved from a thread
// with a 256 KiB stack: proof depth must be bounded by
// TopDownOptions::max_depth and the heap, never by a native stack.
struct DeepProof {
  Database* db = nullptr;
  int64_t n = 0;
  std::vector<int64_t> appended;
  int64_t length = -1;
  TopDownStats append_stats;
  TopDownStats length_stats;
  bool ok = false;
};

void* RunDeepProof(void* arg) {
  auto* proof = static_cast<DeepProof*>(arg);
  TermPool& pool = proof->db->pool();
  const PredicateTable& preds = proof->db->program().preds();
  std::vector<int64_t> values(proof->n);
  for (int64_t i = 0; i < proof->n; ++i) values[i] = i;
  TermId list = MakeIntList(pool, values);

  const std::vector<int64_t> tail = {-1};
  TermId w = pool.MakeVariable("W");
  Atom append{preds.Find("append", 3).value(),
              {list, MakeIntList(pool, tail), w}};
  TopDownEvaluator append_solver(proof->db);
  auto appended = append_solver.Answers({append}, {w});
  if (!appended.ok() || appended->size() != 1) return nullptr;
  auto ints = ListInts(pool, (*appended)[0][0]);
  if (!ints.has_value()) return nullptr;
  proof->appended = *ints;
  proof->append_stats = append_solver.stats();

  TermId n = pool.MakeVariable("N");
  Atom len{preds.Find("len", 2).value(), {list, n}};
  TopDownEvaluator len_solver(proof->db);
  auto length = len_solver.Answers({len}, {n});
  if (!length.ok() || length->size() != 1) return nullptr;
  proof->length = pool.int_value((*length)[0][0]);
  proof->length_stats = len_solver.stats();
  proof->ok = true;
  return nullptr;
}

TEST_F(TopDownTest, DeepProofNeedsNoNativeStack) {
  Load(std::string(AppendProgramSource()) +
       "len([], 0).\nlen([X|Xs], N) :- len(Xs, M), N is M + 1.\n");
  DeepProof proof;
  proof.db = &db_;
  proof.n = 50000;
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{256} << 10), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, RunDeepProof, &proof), 0);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  ASSERT_TRUE(proof.ok);

  ASSERT_EQ(proof.appended.size(), 50001u);
  EXPECT_EQ(proof.appended.front(), 0);
  EXPECT_EQ(proof.appended[49999], 49999);
  EXPECT_EQ(proof.appended.back(), -1);
  ExpectStats(proof.append_stats, 50001, 1, 1);

  EXPECT_EQ(proof.length, 50000);
  ExpectStats(proof.length_stats, 100001, 1, 50001);
}

TEST_F(TopDownTest, SolvesEdbFacts) {
  Load("e(a, b). e(a, c). e(b, d).");
  auto rows = Ask("?- e(a, Y).");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TopDownTest, SolvesConjunction) {
  Load("e(a, b). e(b, c). e(b, d).");
  auto rows = Ask("?- e(a, Y), e(Y, Z).");
  EXPECT_EQ(rows.size(), 2u);  // (b,c), (b,d)
}

TEST_F(TopDownTest, SolvesRecursiveRulesOnAcyclicData) {
  Load(R"(
e(a, b). e(b, c). e(c, d).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
)");
  auto rows = Ask("?- tc(a, Y).");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(TopDownTest, AppendForwards) {
  Load(AppendProgramSource());
  auto rows = Ask("?- append([1, 2], [3, 4], W).");
  ASSERT_EQ(rows.size(), 1u);
  auto ints = ListInts(db_.pool(), rows[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(TopDownTest, AppendBackwardsEnumeratesSplits) {
  Load(AppendProgramSource());
  auto rows = Ask("?- append(X, Y, [1, 2, 3]).");
  EXPECT_EQ(rows.size(), 4u);  // 4 ways to split a 3-element list
}

TEST_F(TopDownTest, IsortSortsPaperExample) {
  Load(IsortProgramSource());
  auto rows = Ask("?- isort([5, 7, 1], Ys).");
  ASSERT_EQ(rows.size(), 1u);
  auto ints = ListInts(db_.pool(), rows[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{1, 5, 7}));
}

TEST_F(TopDownTest, QsortSortsPaperExample) {
  Load(QsortProgramSource());
  auto rows = Ask("?- qsort([4, 9, 5], Ys).");
  ASSERT_EQ(rows.size(), 1u);
  auto ints = ListInts(db_.pool(), rows[0][0]);
  ASSERT_TRUE(ints.has_value());
  EXPECT_EQ(*ints, (std::vector<int64_t>{4, 5, 9}));
}

TEST_F(TopDownTest, ArithmeticGoals) {
  Load("n(3). n(4).");
  auto rows = Ask("?- n(X), Y is X + 10, Y > 13.");
  EXPECT_EQ(rows.size(), 1u);  // X=4, Y=14
}

TEST_F(TopDownTest, DepthCapOnLeftRecursion) {
  Load(R"(
p(X, Y) :- p(X, Z), e(Z, Y).
p(X, Y) :- e(X, Y).
e(a, b).
)");
  TopDownOptions options;
  options.max_depth = 100;
  options.max_steps = 100000;
  Program scratch(&db_.pool());
  ASSERT_TRUE(ParseProgram("?- p(a, Y).", &db_.program()).ok());
  const Query& query = db_.program().queries().back();
  TopDownEvaluator solver(&db_, options);
  auto answers = solver.Answers(query.goals, {});
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(TopDownTest, MaxSolutionsStopsEarly) {
  Load("n(1). n(2). n(3). n(4). n(5).");
  TopDownOptions options;
  options.max_solutions = 2;
  auto rows = Ask("?- n(X).", options);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TopDownTest, FailingQueryHasNoAnswers) {
  Load("e(a, b).");
  auto rows = Ask("?- e(b, X).");
  EXPECT_TRUE(rows.empty());
}

TEST_F(TopDownTest, GroundQuerySucceedsWithEmptyRow) {
  Load(AppendProgramSource());
  auto rows = Ask("?- append([1], [2], [1, 2]).");
  EXPECT_EQ(rows.size(), 1u);
  auto none = Ask("?- append([1], [2], [2, 1]).");
  EXPECT_TRUE(none.empty());
}

// Property: isort output is sorted and a permutation, for random lists.
class IsortProperty : public ::testing::TestWithParam<int> {};

TEST_P(IsortProperty, SortsRandomLists) {
  Database db;
  ASSERT_TRUE(ParseProgram(IsortProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  int n = GetParam();
  std::vector<int64_t> values = RandomInts(n, 0, 50, 1000 + n);
  TermId list = MakeIntList(db.pool(), values);

  PredId isort = db.program().preds().Find("isort", 2).value();
  TermId ys = db.pool().MakeVariable("Ys");
  Atom goal{isort, {list, ys}};
  TopDownEvaluator solver(&db);
  auto answers = solver.Answers({goal}, {ys});
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  auto sorted = ListInts(db.pool(), (*answers)[0][0]);
  ASSERT_TRUE(sorted.has_value());
  std::vector<int64_t> expect = values;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(*sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, IsortProperty,
                         ::testing::Values(0, 1, 2, 3, 8, 16, 32, 64));

// Property: qsort agrees with std::sort. (Note the classic textbook
// qsort drops duplicates of the pivot? No: partition keeps =< on the
// left, so duplicates are preserved.)
class QsortProperty : public ::testing::TestWithParam<int> {};

TEST_P(QsortProperty, SortsRandomLists) {
  Database db;
  ASSERT_TRUE(ParseProgram(QsortProgramSource(), &db.program()).ok());
  ASSERT_TRUE(db.LoadProgramFacts().ok());
  int n = GetParam();
  std::vector<int64_t> values = RandomInts(n, 0, 30, 2000 + n);
  TermId list = MakeIntList(db.pool(), values);

  PredId qsort = db.program().preds().Find("qsort", 2).value();
  TermId ys = db.pool().MakeVariable("Ys");
  Atom goal{qsort, {list, ys}};
  TopDownEvaluator solver(&db);
  auto answers = solver.Answers({goal}, {ys});
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  auto sorted = ListInts(db.pool(), (*answers)[0][0]);
  ASSERT_TRUE(sorted.has_value());
  std::vector<int64_t> expect = values;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(*sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, QsortProperty,
                         ::testing::Values(0, 1, 2, 3, 8, 16, 32));

}  // namespace
}  // namespace chainsplit
