#include "workloads.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "rel/catalog.h"
#include "workload/family_gen.h"
#include "workload/flight_gen.h"
#include "workload/graph_gen.h"
#include "workload/list_gen.h"

namespace perfbench {

using chainsplit::Database;
using chainsplit::PredId;
using chainsplit::Relation;
using chainsplit::StrCat;
using chainsplit::TermId;

namespace {

/// Left-linear, so magic sets derive only the bound source's closure:
/// the right-linear form derives tc(M, Y) for every node M the source
/// reaches, which makes one query's cost quadratic in its reach set and
/// the p99 a property of the seed's graph rather than of the program.
constexpr const char* kTcRules =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

/// Facts per load chunk: one Update (and one WAL record) each.
constexpr int kFactsPerChunk = 2000;

/// read_cold draws this many untimed warm-up keys (x capacity of the
/// service's result cache, 1024 by default) so the cache is at its
/// steady state when timing starts.
constexpr int kColdWarmKeys = 1536;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string ListText(const std::vector<int64_t>& values, size_t begin,
                     size_t end) {
  std::string out = "[";
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) out += ", ";
    out += std::to_string(values[i]);
  }
  out += "]";
  return out;
}

void SetExpected(Request* request, std::vector<std::string> lines) {
  request->expect_rows = static_cast<int64_t>(lines.size());
  request->expect_hash = AnswerHash(&lines);
}

/// Renders every row of `name/arity` in `db` as fact text, appending
/// to the chunk list.
void RenderFacts(const Database& db, const char* name, int arity,
                 std::vector<std::string>* chunks, int64_t* num_facts,
                 int64_t* bytes) {
  std::optional<PredId> pred = db.program().preds().Find(name, arity);
  if (!pred.has_value()) return;
  const Relation* rel = db.GetRelation(*pred);
  if (rel == nullptr) return;
  std::string chunk;
  int in_chunk = 0;
  for (int64_t i = 0; i < rel->num_rows(); ++i) {
    Relation::Row row = rel->row(i);
    chunk += name;
    chunk += "(";
    for (int c = 0; c < arity; ++c) {
      if (c > 0) chunk += ", ";
      chunk += db.pool().ToString(row[c]);
    }
    chunk += ").\n";
    ++*num_facts;
    if (++in_chunk == kFactsPerChunk) {
      *bytes += static_cast<int64_t>(chunk.size());
      chunks->push_back(std::move(chunk));
      chunk.clear();
      in_chunk = 0;
    }
  }
  if (!chunk.empty()) {
    *bytes += static_cast<int64_t>(chunk.size());
    chunks->push_back(std::move(chunk));
  }
}

/// Rows of `name/arity` as TermId tuples.
std::vector<std::vector<TermId>> Rows(const Database& db, const char* name,
                                      int arity) {
  std::vector<std::vector<TermId>> rows;
  std::optional<PredId> pred = db.program().preds().Find(name, arity);
  if (!pred.has_value()) return rows;
  const Relation* rel = db.GetRelation(*pred);
  if (rel == nullptr) return rows;
  for (int64_t i = 0; i < rel->num_rows(); ++i) {
    Relation::Row row = rel->row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

// ---------------------------------------------------------------------
// read_cold / read_hot / read_write: sg, scsg and tc over one EDB.

class ReadDataset : public Dataset {
 public:
  ReadDataset(Workload workload, uint64_t seed, const Scale& scale)
      : workload_(workload) {
    Database gen;
    chainsplit::FamilyOptions family;
    family.num_families = scale.families;
    family.depth = scale.depth;
    family.fanout = 2;
    family.num_countries = scale.countries;
    family.seed = Mix(seed, 1);
    chainsplit::GenerateFamily(&gen, family);
    chainsplit::GraphOptions graph;
    graph.num_nodes = scale.graph_nodes;
    graph.num_edges = scale.graph_edges;
    graph.acyclic = true;
    graph.seed = Mix(seed, 2);
    chainsplit::GenerateGraph(&gen, "edge", graph);

    for (const char* name : {"parent", "sibling", "country", "same_country",
                             "edge"}) {
      RenderFacts(gen, name, 2, &chunks_, &num_facts_, &fact_bytes_);
    }
    rules_ = StrCat(chainsplit::SgProgramSource(),
                    chainsplit::ScsgProgramSource(), kTcRules);
    BuildOracle(gen);

    // Zipf gives the first few ranks most of the traffic, so the key a
    // seed happens to rank first would set the workload's mix. Ranks
    // cycle through the shapes (sg, scsg, tc), so every seed sends each
    // shape the same share. Within a shape the hot keys sit at evenly
    // spaced quantiles of answer size over all its keys (a random subset
    // made the mean answer of a hot request vary 10-16 rows between
    // seeds), ranked median first, then alternately smaller and larger.
    const int shapes = 3;
    std::vector<std::vector<int>> by_shape(shapes);
    for (int k = 0; k < static_cast<int>(keys_.size()); ++k) {
      by_shape[key_shape_[k]].push_back(k);
    }
    for (int shape = 0; shape < shapes; ++shape) {
      std::vector<int>& pool = by_shape[shape];
      std::stable_sort(pool.begin(), pool.end(), [&](int a, int b) {
        return keys_[a].expect_rows < keys_[b].expect_rows;
      });
      const size_t want = std::min<size_t>(
          pool.size(), (scale.hot_keys + shapes - 1 - shape) / shapes);
      std::vector<int> quantiles;
      for (size_t j = 0; j < want; ++j) {
        quantiles.push_back(pool[(2 * j + 1) * pool.size() / (2 * want)]);
      }
      pool = std::move(quantiles);
      std::vector<int> ranked;
      const int mid = static_cast<int>(pool.size()) / 2;
      for (int i = 0; i < static_cast<int>(pool.size()); ++i) {
        int offset = (i + 1) / 2;
        ranked.push_back(pool[i % 2 == 1 ? mid - offset : mid + offset]);
      }
      pool = std::move(ranked);
    }
    for (int r = 0; r < scale.hot_keys; ++r) {
      const std::vector<int>& pool = by_shape[r % shapes];
      if (static_cast<size_t>(r / shapes) < pool.size()) hot_.push_back(pool[r / shapes]);
    }
    // Zipf(1) over the hot keys' ranks.
    double total = 0;
    for (size_t r = 0; r < hot_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  std::vector<std::string> IndexWarmQueries() const override {
    return {StrCat("?- sg(", names_[warm_person_], ", Y)."),
            StrCat("?- scsg(", names_[warm_person_], ", Y)."),
            StrCat("?- tc(", node_names_[warm_node_], ", Y).")};
  }

  std::vector<const Request*> CacheWarmRequests(uint64_t seed) override {
    std::vector<const Request*> warm;
    if (workload_ == Workload::kReadCold) {
      std::mt19937_64 rng(Mix(seed, 4));
      std::uniform_int_distribution<size_t> pick(0, keys_.size() - 1);
      for (int i = 0; i < kColdWarmKeys; ++i) warm.push_back(&keys_[pick(rng)]);
    } else {
      for (int k : hot_) warm.push_back(&keys_[k]);
    }
    return warm;
  }

  std::unique_ptr<Stream> ReaderStream(int client, uint64_t seed) override {
    return std::make_unique<KeyStream>(this, Mix(seed, 100 + client),
                                       workload_ != Workload::kReadCold);
  }

  Request Write(int64_t k) const override {
    Request request;
    request.is_write = true;
    request.line = StrCat("edge(w", k, ", ", node_names_[WriteTarget(k)],
                          ").");
    return request;
  }

  std::vector<Request> RecoveryProbes(
      const std::vector<int64_t>& acked) const override {
    std::vector<Request> probes;
    // Every acknowledged write: tc from its fresh node reaches the
    // written target and everything the target reaches.
    for (int64_t k : acked) {
      int target = WriteTarget(k);
      std::vector<std::string> lines = {StrCat("Y = ", node_names_[target])};
      for (int n : Reach(target)) lines.push_back(StrCat("Y = ", node_names_[n]));
      Request probe;
      probe.line = StrCat("?- tc(w", k, ", Y).");
      SetExpected(&probe, std::move(lines));
      probes.push_back(std::move(probe));
    }
    // A sample of the hot keys, which the writes must not have changed.
    for (size_t i = 0; i < hot_.size(); i += 4) probes.push_back(keys_[hot_[i]]);
    return probes;
  }

 private:
  class KeyStream : public Stream {
   public:
    KeyStream(ReadDataset* data, uint64_t seed, bool hot)
        : data_(data), rng_(seed), hot_(hot) {}
    const Request& Next() override {
      if (!hot_) {
        std::uniform_int_distribution<size_t> pick(0, data_->keys_.size() - 1);
        return data_->keys_[pick(rng_)];
      }
      double u = std::uniform_real_distribution<double>(0, 1)(rng_);
      size_t rank = std::lower_bound(data_->zipf_cdf_.begin(),
                                     data_->zipf_cdf_.end(), u) -
                    data_->zipf_cdf_.begin();
      rank = std::min(rank, data_->hot_.size() - 1);
      return data_->keys_[data_->hot_[rank]];
    }

   private:
    ReadDataset* data_;
    std::mt19937_64 rng_;
    bool hot_;
  };

  int WriteTarget(int64_t k) const {
    return static_cast<int>(Mix(static_cast<uint64_t>(k), 5) %
                            node_names_.size());
  }

  std::vector<int> Reach(int from) const {
    std::vector<char> seen(node_names_.size(), 0);
    std::vector<int> stack = {from};
    std::vector<int> out;
    while (!stack.empty()) {
      int x = stack.back();
      stack.pop_back();
      for (int y : adj_[x]) {
        if (!seen[y]) {
          seen[y] = 1;
          out.push_back(y);
          stack.push_back(y);
        }
      }
    }
    return out;
  }

  /// The oracle: a generation walk over parent/sibling/same_country
  /// for sg and scsg, BFS over edge for tc.
  void BuildOracle(const Database& gen) {
    std::unordered_map<TermId, int> person;
    auto id_of = [&](TermId t) {
      auto [it, fresh] = person.emplace(t, static_cast<int>(names_.size()));
      if (fresh) names_.push_back(gen.pool().ToString(t));
      return it->second;
    };
    std::vector<std::pair<int, int>> parent_pairs, sibling_pairs, sc_pairs;
    for (const auto& r : Rows(gen, "parent", 2)) {
      parent_pairs.emplace_back(id_of(r[0]), id_of(r[1]));
    }
    for (const auto& r : Rows(gen, "sibling", 2)) {
      sibling_pairs.emplace_back(id_of(r[0]), id_of(r[1]));
    }
    for (const auto& r : Rows(gen, "country", 2)) id_of(r[0]);
    for (const auto& r : Rows(gen, "same_country", 2)) {
      sc_pairs.emplace_back(id_of(r[0]), id_of(r[1]));
    }
    const size_t n = names_.size();
    std::vector<std::vector<int>> up(n), down(n), sib(n);
    for (auto [child, par] : parent_pairs) {
      up[child].push_back(par);
      down[par].push_back(child);
    }
    for (auto [a, b] : sibling_pairs) sib[a].push_back(b);
    std::unordered_set<uint64_t> same_country;
    for (auto [a, b] : sc_pairs) {
      same_country.insert((static_cast<uint64_t>(a) << 32) | b);
    }

    // sg(X) = sib(X) u down(sg(X1)) for X1 in up(X);
    // scsg(X) = sib(X) u down(Y1) for X1 in up(X), Y1 in scsg(X1)
    // with same_country(X1, Y1).
    std::vector<std::vector<int>> sg(n), scsg(n);
    std::vector<char> done(n, 0);
    std::function<void(int)> solve = [&](int x) {
      if (done[x]) return;
      done[x] = 1;
      std::vector<int> a = sib[x], b = sib[x];
      for (int x1 : up[x]) {
        solve(x1);
        for (int y1 : sg[x1]) {
          for (int y : down[y1]) a.push_back(y);
        }
        for (int y1 : scsg[x1]) {
          if (!same_country.count((static_cast<uint64_t>(x1) << 32) | y1)) {
            continue;
          }
          for (int y : down[y1]) b.push_back(y);
        }
      }
      for (auto* v : {&a, &b}) {
        std::sort(v->begin(), v->end());
        v->erase(std::unique(v->begin(), v->end()), v->end());
      }
      sg[x] = std::move(a);
      scsg[x] = std::move(b);
    };
    for (size_t x = 0; x < n; ++x) solve(static_cast<int>(x));

    auto add_key = [&](std::string line, const std::vector<std::string>& ys,
                       uint8_t shape) {
      key_shape_.push_back(shape);
      Request request;
      request.line = std::move(line);
      std::vector<std::string> lines;
      lines.reserve(ys.size());
      for (const std::string& y : ys) lines.push_back(StrCat("Y = ", y));
      SetExpected(&request, std::move(lines));
      keys_.push_back(std::move(request));
    };
    for (size_t x = 0; x < n; ++x) {
      std::vector<std::string> ys;
      for (int y : sg[x]) ys.push_back(names_[y]);
      add_key(StrCat("?- sg(", names_[x], ", Y)."), ys, 0);
      ys.clear();
      for (int y : scsg[x]) ys.push_back(names_[y]);
      add_key(StrCat("?- scsg(", names_[x], ", Y)."), ys, 1);
      if (warm_person_ == 0 && !sg[x].empty()) warm_person_ = static_cast<int>(x);
    }

    std::unordered_map<TermId, int> node;
    auto node_of = [&](TermId t) {
      auto [it, fresh] = node.emplace(t, static_cast<int>(node_names_.size()));
      if (fresh) node_names_.push_back(gen.pool().ToString(t));
      return it->second;
    };
    std::vector<std::pair<int, int>> edges;
    for (const auto& r : Rows(gen, "edge", 2)) {
      edges.emplace_back(node_of(r[0]), node_of(r[1]));
    }
    adj_.resize(node_names_.size());
    for (auto [a, b] : edges) adj_[a].push_back(b);
    for (size_t x = 0; x < node_names_.size(); ++x) {
      std::vector<std::string> ys;
      for (int y : Reach(static_cast<int>(x))) ys.push_back(node_names_[y]);
      // A cheap warm query (small reach) keeps setup_s a property of
      // the load path, not of one seed's largest closure.
      if (warm_node_ == 0 && !ys.empty() && ys.size() <= 4) warm_node_ = static_cast<int>(x);
      add_key(StrCat("?- tc(", node_names_[x], ", Y)."), ys, 2);
    }
  }

  Workload workload_;
  std::vector<Request> keys_;
  std::vector<uint8_t> key_shape_;  // 0 sg, 1 scsg, 2 tc
  std::vector<int> hot_;
  std::vector<double> zipf_cdf_;
  std::vector<std::string> names_;
  int warm_person_ = 0;
  int warm_node_ = 0;
  std::vector<std::string> node_names_;
  std::vector<std::vector<int>> adj_;
};

// ---------------------------------------------------------------------
// functional: append splits and concatenation, isort, fare-bounded
// travel over GenerateFlights at its default density.

class FunctionalDataset : public Dataset {
 public:
  FunctionalDataset(uint64_t seed, const Scale& scale) {
    Database gen;
    chainsplit::FlightOptions flights;
    flights.num_cities = scale.cities;
    flights.num_flights = scale.flights;
    flights.seed = Mix(seed, 6);
    chainsplit::GenerateFlights(&gen, flights);
    RenderFacts(gen, "flight", 4, &chunks_, &num_facts_, &fact_bytes_);
    // QsortProgramSource carries the same append/3 rules.
    rules_ = StrCat(chainsplit::QsortProgramSource(),
                    chainsplit::IsortProgramSource(),
                    chainsplit::TravelProgramSource());
    for (int c = 0; c < scale.cities; ++c) {
      cities_.push_back(StrCat("city", c));
    }
    out_.resize(cities_.size());
    std::unordered_map<std::string, int> city;
    for (size_t c = 0; c < cities_.size(); ++c) city[cities_[c]] = static_cast<int>(c);
    for (const auto& r : Rows(gen, "flight", 4)) {
      Flight f;
      f.fno = gen.pool().ToString(r[0]);
      f.to = city.at(gen.pool().ToString(r[2]));
      f.fare = std::stoll(gen.pool().ToString(r[3]));
      out_[city.at(gen.pool().ToString(r[1]))].push_back(std::move(f));
    }
  }

  std::vector<std::string> IndexWarmQueries() const override {
    return {"?- append(X, Y, [1, 2, 3]).", "?- append([1], [2], Z).",
            "?- isort([3, 1, 2], Ys).", "?- qsort([3, 1, 2], Ys)."};
  }

  std::vector<const Request*> CacheWarmRequests(uint64_t seed) override {
    std::mt19937_64 rng(Mix(seed, 7));
    warm_.clear();
    for (int i = 0; i < 64; ++i) warm_.push_back(Generate(rng));
    std::vector<const Request*> out;
    for (const Request& r : warm_) out.push_back(&r);
    return out;
  }

  std::unique_ptr<Stream> ReaderStream(int client, uint64_t seed) override {
    return std::make_unique<FuncStream>(this, Mix(seed, 200 + client));
  }

 private:
  struct Flight {
    std::string fno;
    int to = 0;
    int64_t fare = 0;
  };

  class FuncStream : public Stream {
   public:
    FuncStream(FunctionalDataset* data, uint64_t seed)
        : data_(data), rng_(seed) {}
    const Request& Next() override {
      current_ = data_->Generate(rng_);
      return current_;
    }

   private:
    FunctionalDataset* data_;
    std::mt19937_64 rng_;
    Request current_;
  };

  /// Mix: 30% append splits, 20% append concatenation, 20% isort,
  /// 10% qsort (the nonlinear recursion, so top-down SLD runs), 20%
  /// fare-bounded travel.
  Request Generate(std::mt19937_64& rng) const {
    auto ints = [&](int lo, int hi) {
      int n = std::uniform_int_distribution<int>(lo, hi)(rng);
      return chainsplit::RandomInts(n, -99, 99, rng());
    };
    Request request;
    int kind = std::uniform_int_distribution<int>(0, 9)(rng);
    if (kind < 3) {
      std::vector<int64_t> l = ints(8, 24);
      request.line = StrCat("?- append(X, Y, ", ListText(l, 0, l.size()), ").");
      std::vector<std::string> lines;
      for (size_t i = 0; i <= l.size(); ++i) {
        lines.push_back(StrCat("X = ", ListText(l, 0, i),
                               ", Y = ", ListText(l, i, l.size())));
      }
      SetExpected(&request, std::move(lines));
    } else if (kind < 5) {
      std::vector<int64_t> a = ints(4, 16), b = ints(4, 16);
      request.line = StrCat("?- append(", ListText(a, 0, a.size()), ", ",
                            ListText(b, 0, b.size()), ", Z).");
      std::vector<int64_t> ab = a;
      ab.insert(ab.end(), b.begin(), b.end());
      SetExpected(&request, {StrCat("Z = ", ListText(ab, 0, ab.size()))});
    } else if (kind < 8) {
      std::vector<int64_t> l = ints(8, 24);
      request.line = StrCat(kind < 7 ? "?- isort(" : "?- qsort(",
                            ListText(l, 0, l.size()), ", Ys).");
      std::sort(l.begin(), l.end());
      SetExpected(&request, {StrCat("Ys = ", ListText(l, 0, l.size()))});
    } else {
      std::uniform_int_distribution<int> city(0, static_cast<int>(cities_.size()) - 1);
      request.travel_from = city(rng);
      do {
        request.travel_to = city(rng);
      } while (request.travel_to == request.travel_from);
      request.travel_bound = std::uniform_int_distribution<int64_t>(250, 450)(rng);
      request.line = StrCat("?- travel(L, ", cities_[request.travel_from], ", ",
                            cities_[request.travel_to], ", F), F =< ",
                            request.travel_bound, ".");
    }
    return request;
  }

  /// Bounded DFS: every flight sequence from `from` to `to` whose fare
  /// total stays within `bound` (fares are positive, so it ends).
  std::vector<std::string> TravelOracle(int from, int to,
                                        int64_t bound) const override {
    std::vector<std::string> lines;
    std::vector<std::string> path;
    std::function<void(int, int64_t)> walk = [&](int at, int64_t spent) {
      for (const Flight& f : out_[at]) {
        int64_t total = spent + f.fare;
        if (total > bound) continue;
        path.push_back(f.fno);
        if (f.to == to) {
          std::string list = "[";
          for (size_t i = 0; i < path.size(); ++i) {
            if (i > 0) list += ", ";
            list += path[i];
          }
          lines.push_back(StrCat("L = ", list, "], F = ", total));
        }
        walk(f.to, total);
        path.pop_back();
      }
    };
    walk(from, 0);
    return lines;
  }

  std::vector<std::string> cities_;
  std::vector<std::vector<Flight>> out_;
  std::vector<Request> warm_;
};

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "read_cold") return Workload::kReadCold;
  if (name == "read_hot") return Workload::kReadHot;
  if (name == "read_write") return Workload::kReadWrite;
  if (name == "functional") return Workload::kFunctional;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kReadCold: return "read_cold";
    case Workload::kReadHot: return "read_hot";
    case Workload::kReadWrite: return "read_write";
    case Workload::kFunctional: return "functional";
  }
  return "?";
}

uint64_t AnswerHash(std::vector<std::string>* lines) {
  std::sort(lines->begin(), lines->end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : *lines) {
    for (char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= '\n';
    h *= 0x100000001b3ULL;
  }
  return h;
}

Scale ScaleFor(bool tiny) {
  if (tiny) return Scale{6, 5, 4, 200, 500, 32, 20, 200};
  return Scale{72, 6, 128, 2000, 5000, 256, 20, 200};
}

std::unique_ptr<Dataset> Dataset::Make(Workload workload, uint64_t seed,
                                       bool tiny) {
  if (workload == Workload::kFunctional) {
    return std::make_unique<FunctionalDataset>(seed, ScaleFor(tiny));
  }
  return std::make_unique<ReadDataset>(workload, seed, ScaleFor(tiny));
}

Request Dataset::Write(int64_t) const { return Request{}; }

std::vector<Request> Dataset::RecoveryProbes(const std::vector<int64_t>&) const {
  return {};
}

std::vector<std::string> Dataset::TravelOracle(int, int, int64_t) const {
  return {};
}

bool Dataset::Check(const Request& request,
                    std::vector<std::string>* lines) const {
  if (request.travel_from >= 0) {
    std::vector<std::string> expected = TravelOracle(
        request.travel_from, request.travel_to, request.travel_bound);
    if (expected.size() != lines->size()) return false;
    return AnswerHash(&expected) == AnswerHash(lines);
  }
  if (static_cast<int64_t>(lines->size()) != request.expect_rows) return false;
  return AnswerHash(lines) == request.expect_hash;
}

}  // namespace perfbench
