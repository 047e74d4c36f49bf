// E6 — §4.2 / Example 4.2: the qsort nonlinear recursion.
//
// Paper claim: chain-split is a primitive technique for nonlinear
// recursions too — partition is immediately evaluable while the two
// recursive calls and the output-building append/cons are delayed. Our
// planner evaluates qsort by SLD (the compiled-chain fragment covers
// linear recursions), which performs exactly that order of work:
// expected O(N log N) average growth vs isort's O(N^2).

#include <benchmark/benchmark.h>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/planner.h"
#include "term/list_utils.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

void RunSort(benchmark::State& state, const char* source, const char* pred) {
  const int64_t n = state.range(0);
  Database db;
  Status status = ParseProgram(source, &db.program());
  CS_CHECK(status.ok()) << status;
  status = db.LoadProgramFacts();
  CS_CHECK(status.ok()) << status;
  TermId list = RandomIntList(db.pool(), n, 0, 1000000, 11 + n);
  PredId p = db.program().preds().Find(pred, 2).value();

  double steps = 0;
  for (auto _ : state) {
    Query query;
    query.goals.push_back(Atom{p, {list, db.pool().MakeVariable("Ys")}});
    PlannerOptions options;
    options.force = Technique::kTopDown;
    auto result = EvaluateQuery(&db, query, options);
    CS_CHECK(result.ok()) << result.status();
    CS_CHECK(result->answers.size() == 1) << "sort must be deterministic";
    steps = static_cast<double>(result->topdown_stats.steps);
  }
  state.counters["sld_steps"] = steps;
  state.SetComplexityN(n);
}

void Qsort(benchmark::State& state) {
  RunSort(state, QsortProgramSource(), "qsort");
}
void IsortForComparison(benchmark::State& state) {
  RunSort(state, IsortProgramSource(), "isort");
}

BENCHMARK(Qsort)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(IsortForComparison)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNSquared);

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  std::printf(
      "E6 (Example 4.2): qsort(xs, Ys) vs isort(xs, Ys), |xs|=N, random "
      "data.\nExpected shape: qsort's SLD step count grows ~N log N; "
      "isort's grows ~N^2 — the crossover demonstrates the nonlinear "
      "recursion evaluating asymptotically faster, as in Prolog. The "
      "exact paper trace qsort([4,9,5])=[4,5,9] is pinned in "
      "paper_traces_test.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
