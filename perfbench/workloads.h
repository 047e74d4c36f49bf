#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// Inputs of the socket-to-answer benchmark: the generated EDB (as the
// fact text a client would load), the rules, the request streams of
// each workload, and an answer oracle that is independent of the
// evaluators under test.

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kReadCold, kReadHot, kReadWrite, kFunctional };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// One protocol line a client sends, with what the oracle expects.
struct Request {
  std::string line;
  bool is_write = false;
  /// Fingerprint and size of the sorted expected answer lines.
  uint64_t expect_hash = 0;
  int64_t expect_rows = 0;
  /// travel queries are checked lazily (the oracle's bounded DFS is
  /// only worth running when the program returns answers): origin and
  /// destination city index and the fare bound; -1 = not a travel
  /// query.
  int travel_from = -1;
  int travel_to = -1;
  int64_t travel_bound = 0;
};

/// Order-independent fingerprint of answer lines: sorts them, then
/// FNV-1a over the sorted sequence.
uint64_t AnswerHash(std::vector<std::string>* lines);

/// Sizes of the generated inputs. `tiny` is the self-test scale.
struct Scale {
  int families;
  int depth;
  int countries;
  int graph_nodes;
  int graph_edges;
  int hot_keys;
  int cities;
  int flights;
};
Scale ScaleFor(bool tiny);

/// A closed-loop client's request source.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual const Request& Next() = 0;
};

class Dataset {
 public:
  /// Generates the inputs of `workload` from `seed`.
  static std::unique_ptr<Dataset> Make(Workload workload, uint64_t seed,
                                       bool tiny);
  virtual ~Dataset() = default;

  /// Fact text in load-sized chunks (one Update each) and the rules.
  const std::vector<std::string>& fact_chunks() const { return chunks_; }
  const std::string& rules() const { return rules_; }
  int64_t num_facts() const { return num_facts_; }
  int64_t fact_bytes() const { return fact_bytes_; }

  /// One query per shape: run during set-up so lazy index builds on
  /// the base relations happen before serving.
  virtual std::vector<std::string> IndexWarmQueries() const = 0;
  /// Untimed warm-up requests: fill the result cache to its steady
  /// state for the workload.
  virtual std::vector<const Request*> CacheWarmRequests(uint64_t seed) = 0;

  /// Reader stream `client` of the workload (distinct per client).
  virtual std::unique_ptr<Stream> ReaderStream(int client, uint64_t seed) = 0;
  /// The k-th write of the read_write writer (fresh fact, one line).
  virtual Request Write(int64_t k) const;

  /// True when `lines` (answer lines of one response, consumed) match
  /// the oracle for `request`.
  bool Check(const Request& request, std::vector<std::string>* lines) const;

  /// Recovery checks after reopening the data directory: queries whose
  /// expected answers reflect the acknowledged writes `acked`.
  virtual std::vector<Request> RecoveryProbes(
      const std::vector<int64_t>& acked) const;

 protected:
  virtual std::vector<std::string> TravelOracle(int from, int to,
                                                int64_t bound) const;

  std::vector<std::string> chunks_;
  std::string rules_;
  int64_t num_facts_ = 0;
  int64_t fact_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
