// Thread-sanitizer stress for the shared-lock evaluation path:
// concurrent uncached queries (each parsing, interning, lazily
// building indexes and evaluating through its own overlay) racing a
// writer that keeps inserting fresh facts with brand-new symbols.
// Run under the tsan preset (label tier1-tsan) to check the interner,
// the lazy index publication and the lock protocol; under the default
// preset it is a plain correctness smoke test.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "service/query_service.h"
#include "workload/list_gen.h"

namespace chainsplit {
namespace {

constexpr const char* kRules =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
    "rtc(X, Y) :- edge(Y, X).\n"
    "rtc(X, Y) :- edge(Z, X), rtc(Z, Y).\n";

TEST(ServiceStressTest, ConcurrentUncachedReadersVsFactWriter) {
  QueryService service;
  std::string seed = kRules;
  for (int i = 0; i < 30; ++i) {
    seed += StrCat("edge(a", i, ", a", i + 1, ").\n");
  }
  UpdateResponse seeded = service.Update(seed);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 40;
  constexpr int kWrites = 60;

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);

  // Readers: uncached bypass queries through the overlay path, probing
  // both directions so different index columns get built lazily — and
  // concurrently — on the same base relations.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &failed, r] {
      RequestOptions bypass;
      bypass.bypass_cache = true;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const std::string text =
            (i % 2 == 0) ? StrCat("?- tc(a", (r * 7 + i) % 30, ", Y).")
                         : StrCat("?- rtc(a", (r * 5 + i) % 30 + 1, ", Y).");
        QueryResponse response = service.Query(text, bypass);
        if (!response.status.ok() || response.rows.empty()) {
          failed.store(true);
        }
      }
    });
  }

  // Writer: keeps extending the chain with fresh facts whose node
  // names are brand-new symbols, exercising the interner against the
  // readers' concurrent parses.
  threads.emplace_back([&service, &failed] {
    for (int i = 0; i < kWrites; ++i) {
      UpdateResponse update =
          service.Update(StrCat("edge(w", i, ", w", i + 1, ").\n"));
      if (!update.status.ok() || update.new_facts != 1) failed.store(true);
    }
  });

  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shared_evals, kReaders * kQueriesPerReader);
  EXPECT_EQ(stats.updates, 1 + kWrites);

  // Every fact the writer inserted must be query-visible afterwards.
  RequestOptions bypass;
  bypass.bypass_cache = true;
  QueryResponse chain = service.Query("?- tc(w0, Y).", bypass);
  ASSERT_TRUE(chain.status.ok()) << chain.status;
  EXPECT_EQ(chain.rows.size(), static_cast<size_t>(kWrites));
}

TEST(ServiceStressTest, ConcurrentMixedCachedAndUncached) {
  // Cached hits, uncached overlay evaluations and exclusive-baseline
  // evaluations interleaving on the same service.
  QueryService service;
  std::string seed = kRules;
  for (int i = 0; i < 20; ++i) {
    seed += StrCat("edge(b", i, ", b", i + 1, ").\n");
  }
  UpdateResponse seeded = service.Update(seed);
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&service, &failed, t] {
      for (int i = 0; i < 30; ++i) {
        RequestOptions request;
        if (t % 2 == 0) request.bypass_cache = true;
        if (t == 3) request.force_exclusive = true;
        QueryResponse response =
            service.Query(StrCat("?- tc(b", i % 20, ", Y)."), request);
        if (!response.status.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

/// "[1, 2, 3]", as the service renders an integer list.
std::string ListText(const std::vector<int64_t>& values) {
  std::string text = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ", ";
    text += std::to_string(values[i]);
  }
  return text + "]";
}

TEST(ServiceStressTest, ConcurrentSldQueries) {
  // The SLD prover runs on the calling (dispatcher) threads: four of
  // them proving isort, qsort and append^ffb at once, uncached, each
  // answer checked against std::sort or the expected splits.
  QueryService service;
  UpdateResponse seeded = service.Update(StrCat(IsortProgramSource(),
                                                QsortProgramSource()));
  ASSERT_TRUE(seeded.status.ok()) << seeded.status;

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 24;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &wrong, t] {
      RequestOptions bypass;
      bypass.bypass_cache = true;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const std::vector<int64_t> values =
            RandomInts(8 + (t + i) % 9, 0, 40, 100 * t + i);
        std::vector<int64_t> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        const std::string list = ListText(values);
        std::vector<std::vector<std::string>> expected;
        std::string text;
        switch (i % 3) {
          case 0:
            text = StrCat("?- isort(", list, ", Ys).");
            expected = {{ListText(sorted)}};
            break;
          case 1:
            text = StrCat("?- qsort(", list, ", Ys).");
            expected = {{ListText(sorted)}};
            break;
          default:
            text = StrCat("?- append(X, Y, ", list, ").");
            for (size_t k = 0; k <= values.size(); ++k) {
              expected.push_back(
                  {ListText({values.begin(), values.begin() + k}),
                   ListText({values.begin() + k, values.end()})});
            }
            break;
        }
        QueryResponse response = service.Query(text, bypass);
        std::vector<std::vector<std::string>> rows = response.rows;
        std::sort(rows.begin(), rows.end());
        std::sort(expected.begin(), expected.end());
        if (!response.status.ok() || rows != expected) ++wrong;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(service.stats().shared_evals, kThreads * kQueriesPerThread);
}

}  // namespace
}  // namespace chainsplit
