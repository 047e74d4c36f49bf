// Socket-to-answer benchmark. Runs a TcpServer over a QueryService in
// this process with default options, replays one workload over
// loopback sockets, checks every answer against an oracle, and prints
// the metrics as one JSON line (the last line of stdout).
//
//   perfbench --workload read_cold|read_hot|read_write|functional
//             --seed N --seconds S --trace 0|1 [--tiny] [--tmp DIR]
//             [--commit SHA] [--seed-role dev|holdout]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the traced
// run that gives the per-layer breakdown (NOTES.md).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "net/epoll_engine.h"
#include "net/listen.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "service/server.h"
#include "service/session.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using chainsplit::QueryResponse;
using chainsplit::QueryService;
using chainsplit::StrCat;
using Clock = std::chrono::steady_clock;

/// Closed-loop connections per workload (never above nproc). Four
/// clients plus the server's loop and dispatcher threads oversubscribe
/// a 4-vCPU host; two keep run-to-run spread low (NOTES.md).
constexpr int kReaders = 2;
/// read_write: the open-loop writer's fixed rate, in updates/s.
constexpr double kWriteRate = 50;
/// Readers are closed loop; on every workload but read_hot each is
/// also paced to at most this many requests/s (NOTES.md). On read_write,
/// unpaced readers' own speed set how many cached answers each write
/// invalidated (misses cost ~1 ms) and qps swung 2x between runs of one
/// seed; on read_cold and functional, host slow-downs that halve the
/// CPU for minutes turned into queueing that doubled p90. The rates
/// leave about 2x headroom over the capacity measured unpaced. Since a
/// paced run's achieved rate is its schedule, qps is the closed-loop
/// capacity readers / mean round trip instead (Summarize).
double PacedReadRate(Workload workload) {
  switch (workload) {
    case Workload::kReadCold: return 500;
    case Workload::kReadHot: return 0;  // unpaced: measures capacity
    case Workload::kReadWrite: return 1500;
    case Workload::kFunctional: return 40;
  }
  return 0;
}
/// read_write: auto-checkpoint every N logged records is chosen so a
/// run takes about this many snapshots.
constexpr double kSnapshotsPerRun = 4;
/// Set-ups per run, in two batches, one before the load and one after
/// it, so the median samples the host at both ends of the run. Each
/// batch runs at least kMinSetups and until kSetupBudgetS has passed (a
/// cheap set-up is repeated more often, so its median is not one
/// scheduler hiccup); setup_s is the median of both batches.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 1.0;
/// obs.trace_overhead_pct: requests timed both ways per traced run.
constexpr size_t kOverheadRequests = 64;
/// Latency and qps are medians over groups of the run's one-second
/// windows holding at least this many reads each.
constexpr int64_t kSamplesPerWindow = 1000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

struct Args {
  Workload workload = Workload::kReadCold;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string tmp_dir = ".bench_build/perfbench-tmp";
  std::string commit = "unknown";
  std::string seed_role = "dev";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die(StrCat("missing value for ", flag));
      return argv[++i];
    };
    if (flag == "--workload") {
      std::optional<Workload> w = ParseWorkload(value());
      if (!w.has_value()) Die("unknown workload");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--tmp") {
      args.tmp_dir = value();
    } else if (flag == "--commit") {
      args.commit = value();
    } else if (flag == "--seed-role") {
      args.seed_role = value();
    } else {
      Die(StrCat("unknown flag ", flag));
    }
  }
  if (!have_workload) Die("--workload is required");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

int Readers() {
  int cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kReaders, cpus);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

/// Session's rendering of one answer row ("X = v, Y = w").
std::vector<std::string> AnswerLines(const QueryResponse& response) {
  std::vector<std::string> lines;
  for (const auto& row : response.rows) {
    std::string line;
    for (size_t i = 0; i < response.vars.size(); ++i) {
      if (i > 0) line += ", ";
      line += StrCat(response.vars[i], " = ", row[i]);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// ---------------------------------------------------------------------
// Set-up: an empty service to ready-to-serve through the public paths.

struct Instance {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<chainsplit::TcpServer> server;
  int port = 0;
  std::string data_dir;
  chainsplit::DurabilityOptions durability;
  /// Fact text ingested through Update (load + writes).
  int64_t user_bytes = 0;
  int64_t base_arena_bytes = 0;
  int64_t base_facts = 0;
};

/// `run_seconds` is how long the instance will serve (it sizes the
/// auto-checkpoint interval).
std::unique_ptr<Instance> SetUp(const Dataset& data, const Args& args,
                                bool listen, int index, double run_seconds,
                                double* seconds) {
  auto inst = std::make_unique<Instance>();
  if (args.workload == Workload::kReadWrite) {
    inst->data_dir = StrCat(args.tmp_dir, "/", WorkloadName(args.workload),
                            "-", getpid(), "-", index);
    std::filesystem::remove_all(inst->data_dir);
    inst->durability.data_dir = inst->data_dir;
    // wal-sync=interval is the default policy, stated here.
    inst->durability.wal.sync = chainsplit::WalSyncPolicy::kInterval;
    inst->durability.snapshot_every_records = std::max<int64_t>(
        10, static_cast<int64_t>(kWriteRate * run_seconds / kSnapshotsPerRun));
  }
  const Clock::time_point start = Clock::now();
  inst->service = std::make_unique<QueryService>();
  QueryService& service = *inst->service;
  if (!inst->data_dir.empty()) {
    auto recovered = service.EnableDurability(inst->durability);
    if (!recovered.ok()) Die(recovered.status().ToString());
  }
  int64_t loaded = 0;
  for (const std::string& chunk : data.fact_chunks()) {
    chainsplit::UpdateResponse r = service.Update(chunk);
    if (!r.status.ok()) Die(StrCat("load: ", r.status.ToString()));
    loaded += r.new_facts;
    inst->user_bytes += static_cast<int64_t>(chunk.size());
  }
  if (loaded != data.num_facts()) Die("load: fact count mismatch");
  chainsplit::UpdateResponse rules = service.Update(data.rules());
  if (!rules.status.ok()) Die(StrCat("rules: ", rules.status.ToString()));
  for (const std::string& q : data.IndexWarmQueries()) {
    QueryResponse r = service.Query(q);
    if (!r.status.ok()) Die(StrCat("warm ", q, ": ", r.status.ToString()));
  }
  if (listen) {
    inst->server = std::make_unique<chainsplit::TcpServer>(&service);
    auto port = inst->server->Start(0);
    if (!port.ok()) Die(port.status().ToString());
    inst->port = *port;
  }
  *seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (chainsplit::PredId pred : service.db().StoredPredicates()) {
    const chainsplit::Relation* rel = service.db().GetRelation(pred);
    inst->base_arena_bytes += rel->telemetry().arena_bytes;
    inst->base_facts += rel->size();
  }
  return inst;
}

/// Stops and destroys an instance and removes its data directory.
void Discard(std::unique_ptr<Instance> inst) {
  if (inst == nullptr) return;
  inst->server.reset();
  inst->service.reset();
  if (!inst->data_dir.empty()) std::filesystem::remove_all(inst->data_dir);
}

/// One batch of timed set-ups (kMinSetups, kSetupBudgetS); appends each
/// one's seconds to `setups` and returns the last instance, listening.
std::unique_ptr<Instance> SetUpBatch(const Dataset& data, const Args& args,
                                     std::vector<double>* setups) {
  std::unique_ptr<Instance> inst;
  double total = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || total < kSetupBudgetS); ++i) {
    Discard(std::move(inst));
    double seconds = 0;
    inst = SetUp(data, args, /*listen=*/true, static_cast<int>(setups->size()),
                 args.seconds, &seconds);
    setups->push_back(seconds);
    total += seconds;
  }
  return inst;
}

/// Untimed warm-up: fills the result cache to the workload's steady
/// state. Answers are checked here too (the in-process path).
void Warm(Dataset& data, Instance& inst, uint64_t seed, int64_t* wrong) {
  for (const Request* request : data.CacheWarmRequests(seed)) {
    QueryResponse r = inst.service->Query(request->line);
    if (!r.status.ok()) continue;  // counted in the measured run only
    std::vector<std::string> lines = AnswerLines(r);
    if (!data.Check(*request, &lines)) ++*wrong;
  }
}

// ---------------------------------------------------------------------
// Load generator: line-protocol clients over loopback.

class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Connects and consumes the greeting frame.
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    std::vector<std::string> greeting;
    return ReadFrame(&greeting);
  }

  bool Send(const std::string& line) {
    std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one "."-terminated frame into `lines` (without the
  /// terminator). False on disconnect.
  bool ReadFrame(std::vector<std::string>* lines) {
    lines->clear();
    while (true) {
      size_t nl = buf_.find('\n', off_);
      if (nl == std::string::npos) {
        buf_.erase(0, off_);
        off_ = 0;
        char chunk[65536];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) return false;
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      size_t len = nl - off_;
      if (len == 1 && buf_[off_] == '.') {
        off_ = nl + 1;
        return true;
      }
      lines->emplace_back(buf_, off_, len);
      off_ = nl + 1;
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t off_ = 0;
};

enum Outcome : uint8_t { kOk, kError, kOverloaded, kWrong };

struct Sample {
  int64_t send_ns = 0;   // reads: send time; writes: scheduled time
  int64_t recv_ns = 0;
  int64_t lag_ns = 0;    // writes: actual send - scheduled
  Outcome outcome = kOk;
  bool write = false;
};

/// Log-linear latency histogram (64 sub-buckets per power of two, so
/// about 1.6% resolution) in fixed memory: the load generator's own
/// footprint must not grow with throughput, or rss_mb would measure it.
class LatencyHistogram {
 public:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = kSub + 40 * kSub;

  void Add(int64_t ns) {
    ++counts_[Index(std::max<int64_t>(ns, 0))];
    ++total_;
  }
  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  int64_t total() const { return total_; }

  /// Quantile in nanoseconds, interpolated within the covering bucket.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * static_cast<double>(total_ - 1);
    int64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (rank < static_cast<double>(seen + counts_[i])) {
        const double frac = (rank - static_cast<double>(seen) + 0.5) /
                            static_cast<double>(counts_[i]);
        return Lower(i) + frac * Width(i);
      }
      seen += counts_[i];
    }
    return Lower(kBuckets - 1);
  }

 private:
  static int Index(int64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int p = 63 - __builtin_clzll(static_cast<uint64_t>(v));
    const int shift = p - 6;
    const int index = kSub + shift * kSub + static_cast<int>((v >> shift) - kSub);
    return std::min(index, kBuckets - 1);
  }
  static double Lower(int i) {
    if (i < kSub) return i;
    const int shift = (i - kSub) / kSub;
    return static_cast<double>((static_cast<int64_t>(kSub + (i - kSub) % kSub)) << shift);
  }
  static double Width(int i) {
    return i < kSub ? 1.0 : static_cast<double>(int64_t{1} << ((i - kSub) / kSub));
  }

  std::vector<int64_t> counts_ = std::vector<int64_t>(kBuckets, 0);
  int64_t total_ = 0;
};

/// One client's record of a run. Reads land in per-second windows of
/// successes; raw samples are kept only for the writer (bounded by its
/// rate) and for the traced run, which pairs requests one by one.
struct ClientLog {
  std::vector<LatencyHistogram> read_windows;
  std::vector<int64_t> ok_per_window;  // reads and writes
  std::vector<int64_t> read_rtt_ns;    // round trips of all answered reads
  std::vector<int64_t> first_ok_ns, last_ok_ns;  // per window
  int64_t attempted = 0;
  int64_t failed = 0;  // error frames and overloads
  int64_t wrong = 0;
  std::vector<Sample> samples;
  /// Requests in send order (kept for the traced replay).
  std::vector<Request> sent;
  bool conn_failed = false;
};

struct LoadResult {
  std::vector<ClientLog> clients;  // readers, then the writer (if any)
  int readers = 0;
  double seconds = 0;
  int windows = 1;
  std::map<std::string, int64_t> error_kinds;
  std::string first_wrong;
  std::vector<int64_t> acked_writes;
};

Outcome Classify(const Dataset& data, const Request& request,
                 std::vector<std::string>* lines, LoadResult* result,
                 std::mutex* mu) {
  for (const std::string& line : *lines) {
    if (line.rfind("% overloaded", 0) == 0) return kOverloaded;
  }
  if (!lines->empty() && (lines->front().rfind("error:", 0) == 0 ||
                          lines->front().rfind("parse error:", 0) == 0)) {
    std::string kind = lines->front().substr(0, lines->front().find(':', 7));
    std::lock_guard<std::mutex> lock(*mu);
    ++result->error_kinds[kind];
    return kError;
  }
  if (request.is_write) return lines->empty() ? kOk : kWrong;
  std::vector<std::string> answers;
  for (std::string& line : *lines) {
    if (line.empty() || line[0] == '%' || line == "no answers") continue;
    answers.push_back(std::move(line));
  }
  if (data.Check(request, &answers)) return kOk;
  std::lock_guard<std::mutex> lock(*mu);
  if (result->first_wrong.empty()) result->first_wrong = request.line;
  return kWrong;
}

/// Runs the workload's clients against `port` for `seconds`. Readers
/// are closed loop; read_write adds one open-loop writer (pipelined on
/// its own connection: a sender on the schedule, a receiver for acks).
LoadResult RunLoad(Dataset& data, const Args& args, int port, double seconds,
                   bool record) {
  const int readers = Readers();
  const bool writer = args.workload == Workload::kReadWrite;
  LoadResult result;
  result.readers = readers;
  result.clients.resize(readers + (writer ? 1 : 0));
  // Connect in order, waiting for each greeting, so the server accepts
  // (and creates handlers) in client order.
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t i = 0; i < result.clients.size(); ++i) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Connect(port)) result.clients[i].conn_failed = true;
  }
  std::mutex mu;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start).count();
  };
  const int64_t expected_requests =
      static_cast<int64_t>(seconds * (writer ? kWriteRate : 0)) + 16;

  // Windows of about a second each (at least five per run).
  result.windows = std::max(5, static_cast<int>(seconds));
  const double window_ns = seconds * 1e9 / result.windows;
  auto record_outcome = [&](ClientLog& log, const Sample& s) {
    ++log.attempted;
    if (s.outcome == kWrong) ++log.wrong;
    if (s.outcome == kError || s.outcome == kOverloaded) ++log.failed;
    int w = std::clamp(static_cast<int>(s.recv_ns / window_ns), 0, result.windows - 1);
    if (!s.write) log.read_rtt_ns[w] += s.recv_ns - s.send_ns;
    if (s.outcome != kOk) return;
    ++log.ok_per_window[w];
    log.first_ok_ns[w] = std::min(log.first_ok_ns[w], s.recv_ns);
    log.last_ok_ns[w] = std::max(log.last_ok_ns[w], s.recv_ns);
    if (!s.write) log.read_windows[w].Add(s.recv_ns - s.send_ns);
  };
  for (ClientLog& log : result.clients) {
    log.read_windows.resize(result.windows);
    log.ok_per_window.assign(result.windows, 0);
    log.read_rtt_ns.assign(result.windows, 0);
    log.first_ok_ns.assign(result.windows, INT64_MAX);
    log.last_ok_ns.assign(result.windows, INT64_MIN);
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = result.clients[c];
      if (log.conn_failed) return;
      std::unique_ptr<Stream> stream = data.ReaderStream(c, args.seed);
      std::vector<std::string> lines;
      std::this_thread::sleep_until(start);
      const double rate = PacedReadRate(args.workload);
      const auto pace = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0));
      Clock::time_point due = start;
      while (Clock::now() < end) {
        if (rate > 0) {
          due += pace;
          std::this_thread::sleep_until(due);
        }
        const Request& request = stream->Next();
        Sample s;
        s.send_ns = ns(Clock::now());
        if (!conns[c]->Send(request.line) || !conns[c]->ReadFrame(&lines)) {
          log.conn_failed = true;
          break;
        }
        s.recv_ns = ns(Clock::now());
        s.outcome = Classify(data, request, &lines, &result, &mu);
        record_outcome(log, s);
        if (record) {
          log.samples.push_back(s);
          log.sent.push_back(request);
        }
      }
    });
  }

  if (writer) {
    ClientLog& log = result.clients[readers];
    log.samples.resize(expected_requests);
    log.sent.resize(expected_requests);
    std::atomic<int64_t> sent{0};
    std::atomic<bool> sender_done{false};
    std::mutex wmu;
    std::condition_variable wcv;
    Conn* conn = conns[readers].get();
    std::thread sender([&] {
      if (!log.conn_failed) {
        const double period = 1.0 / kWriteRate;
        for (int64_t k = 0; k < expected_requests; ++k) {
          Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(k * period));
          if (due >= end) break;
          std::this_thread::sleep_until(due);
          Sample& s = log.samples[k];
          s.write = true;
          s.send_ns = ns(due);
          s.lag_ns = ns(Clock::now()) - s.send_ns;
          log.sent[k] = data.Write(k);
          if (!conn->Send(log.sent[k].line)) break;
          {
            std::lock_guard<std::mutex> lock(wmu);
            sent.store(k + 1);
          }
          wcv.notify_one();
        }
      }
      {
        std::lock_guard<std::mutex> lock(wmu);
        sender_done = true;
      }
      wcv.notify_one();
    });
    std::thread receiver([&] {
      std::vector<std::string> lines;
      for (int64_t k = 0;; ++k) {
        {
          std::unique_lock<std::mutex> lock(wmu);
          wcv.wait(lock, [&] { return sent.load() > k || sender_done; });
          if (sent.load() <= k) break;
        }
        if (!conn->ReadFrame(&lines)) {
          log.conn_failed = true;
          break;
        }
        Sample& s = log.samples[k];
        s.recv_ns = ns(Clock::now());
        s.outcome = Classify(data, log.sent[k], &lines, &result, &mu);
        record_outcome(log, s);
        if (s.outcome == kOk) result.acked_writes.push_back(k);
      }
    });
    sender.join();
    receiver.join();
    int64_t n = sent.load();
    log.samples.resize(n);
    log.sent.resize(n);
  }
  for (std::thread& t : threads) t.join();
  result.seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

/// End-to-end figures of one load run.
struct EndToEnd {
  double qps = 0;
  double achieved_qps = 0;
  double read_p50_ms = 0, read_p90_ms = 0, read_p99_ms = 0;
  double write_p50_ms = 0, write_p99_ms = 0;
  double writer_lag_p99_ms = 0;
  int64_t reads = 0, writes = 0;
  int64_t attempted = 0, failed = 0, wrong = 0;
  double error_rate = 0;
};

EndToEnd Summarize(const LoadResult& load) {
  EndToEnd e;
  std::vector<double> writes, lags;
  std::vector<LatencyHistogram> reads(load.windows);
  std::vector<int64_t> ok(load.windows, 0), rtt_ns(load.windows, 0);
  std::vector<int64_t> first(load.windows, INT64_MAX), last(load.windows, INT64_MIN);
  for (const ClientLog& log : load.clients) {
    if (log.conn_failed) ++e.failed;
    e.attempted += log.attempted;
    e.failed += log.failed;
    e.wrong += log.wrong;
    for (int w = 0; w < load.windows; ++w) {
      reads[w].Merge(log.read_windows[w]);
      ok[w] += log.ok_per_window[w];
      rtt_ns[w] += log.read_rtt_ns[w];
      first[w] = std::min(first[w], log.first_ok_ns[w]);
      last[w] = std::max(last[w], log.last_ok_ns[w]);
    }
    for (const Sample& s : log.samples) {
      if (!s.write) continue;
      lags.push_back(s.lag_ns / 1e6);
      if (s.outcome == kOk) writes.push_back((s.recv_ns - s.send_ns) / 1e6);
    }
  }
  e.writes = static_cast<int64_t>(writes.size());
  e.write_p50_ms = Percentile(writes, 0.50);
  e.write_p99_ms = Percentile(writes, 0.99);
  e.writer_lag_p99_ms = Percentile(lags, 0.99);
  e.error_rate = Ratio(static_cast<double>(e.failed), static_cast<double>(e.attempted));
  // Medians over groups of consecutive windows, so a neighbour's burst
  // on a shared host moves one group rather than the figure. Each group
  // holds >= kSamplesPerWindow reads, so its p99 has >= 10 beyond it.
  const double window_s = load.seconds / load.windows;
  std::vector<double> qps, achieved, p50, p90, p99;
  LatencyHistogram group;
  int64_t group_ok = 0, group_rtt_ns = 0;
  int group_windows = 0;
  int64_t group_first = INT64_MAX, group_last = INT64_MIN;
  for (int w = 0; w < load.windows; ++w) {
    e.reads += reads[w].total();
    group.Merge(reads[w]);
    group_ok += ok[w];
    group_rtt_ns += rtt_ns[w];
    group_first = std::min(group_first, first[w]);
    group_last = std::max(group_last, last[w]);
    ++group_windows;
    const bool final_window = w + 1 == load.windows;
    if (group.total() >= kSamplesPerWindow || (final_window && qps.empty())) {
      // qps is the closed-loop capacity: successful reads per second of
      // round trip with every reader's request in flight (readers /
      // mean round trip, scaled by the share that succeeded), plus the
      // writes acked. A paced reader idles between requests, so its
      // achieved rate is the schedule; this figure moves with the
      // service's speed on paced and unpaced workloads alike.
      const double group_s = group_windows * window_s;
      const int64_t group_writes = group_ok - group.total();
      qps.push_back(group_rtt_ns > 0
                        ? group.total() * load.readers / (group_rtt_ns / 1e9) +
                              group_writes / group_s
                        : group_ok / group_s);
      // The achieved rate, between the group's first and last completion.
      const double span_s = (group_last - group_first) / 1e9;
      achieved.push_back(group_ok > 1 && span_s > 0 ? (group_ok - 1) / span_s
                                                    : group_ok / group_s);
      p50.push_back(group.Quantile(0.50) / 1e6);
      p90.push_back(group.Quantile(0.90) / 1e6);
      p99.push_back(group.Quantile(0.99) / 1e6);
      group = LatencyHistogram();
      group_ok = 0;
      group_rtt_ns = 0;
      group_windows = 0;
      group_first = INT64_MAX;
      group_last = INT64_MIN;
    }
  }
  e.qps = Percentile(qps, 0.5);
  e.achieved_qps = Percentile(achieved, 0.5);
  e.read_p50_ms = Percentile(p50, 0.5);
  e.read_p90_ms = Percentile(p90, 0.5);
  e.read_p99_ms = Percentile(p99, 0.5);
  return e;
}

// ---------------------------------------------------------------------
// read_write durability check: reopen the data directory in a fresh
// service (WAL replay: logical durability, not device flushes).

struct DurabilityCheck {
  bool ok = true;
  std::string failure;
  double disk_bytes_per_user_byte = 0;
  double recovery_s = 0;
  int64_t probes = 0;
};

DurabilityCheck CheckDurability(const Dataset& data, std::unique_ptr<Instance> inst,
                                const LoadResult& load) {
  DurabilityCheck check;
  int64_t user_bytes = inst->user_bytes;
  for (int64_t k : load.acked_writes) {
    user_bytes += static_cast<int64_t>(data.Write(k).line.size()) + 1;
  }
  if (inst->server) inst->server->Stop();
  inst->server.reset();
  inst->service.reset();  // stops the checkpointer, closes the WAL
  check.disk_bytes_per_user_byte =
      Ratio(static_cast<double>(DirBytes(inst->data_dir)), static_cast<double>(user_bytes));
  const Clock::time_point start = Clock::now();
  QueryService reopened;
  chainsplit::DurabilityOptions options = inst->durability;
  options.snapshot_every_records = 0;
  auto recovered = reopened.EnableDurability(options);
  check.recovery_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (!recovered.ok()) {
    check.ok = false;
    check.failure = recovered.status().ToString();
  }
  for (const Request& probe : data.RecoveryProbes(load.acked_writes)) {
    if (!check.ok) break;
    ++check.probes;
    QueryResponse r = reopened.Query(probe.line);
    std::vector<std::string> lines = AnswerLines(r);
    if (!r.status.ok() || !data.Check(probe, &lines)) {
      check.ok = false;
      check.failure = StrCat("after recovery: ", probe.line);
    }
  }
  std::filesystem::remove_all(inst->data_dir);
  return check;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrCat("\"", metrics[i].name, "\": {\"value\": ", Num(metrics[i].value),
                  ", \"unit\": \"", metrics[i].unit, "\"}");
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintProvenance(const Args& args) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seed_role\": "
      "\"%s\", \"seconds\": %s, \"trace\": %d, \"tiny\": %s, \"nproc\": %u, "
      "\"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"readers\": %d, \"paced_read_rate\": %s, \"write_rate\": %s}}\n",
      WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
      chainsplit::JsonEscape(args.seed_role).c_str(), Num(args.seconds).c_str(),
      args.trace ? 1 : 0, args.tiny ? "true" : "false",
      std::thread::hardware_concurrency(), chainsplit::JsonEscape(CpuModel()).c_str(),
      chainsplit::JsonEscape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      chainsplit::JsonEscape(args.commit).c_str(), Readers(),
      Num(PacedReadRate(args.workload)).c_str(),
      Num(args.workload == Workload::kReadWrite ? kWriteRate : 0).c_str());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

std::string ErrorKindsJson(const LoadResult& load) {
  std::string out = "{";
  for (const auto& [kind, count] : load.error_kinds) {
    if (out.size() > 1) out += ", ";
    out += StrCat("\"", chainsplit::JsonEscape(kind), "\": ", count);
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// --trace 0: the end-to-end run.

int RunEndToEnd(const Args& args) {
  std::unique_ptr<Dataset> data = Dataset::Make(args.workload, args.seed, args.tiny);
  std::vector<double> setups;
  std::unique_ptr<Instance> inst = SetUpBatch(*data, args, &setups);
  int64_t wrong = 0;
  Warm(*data, *inst, args.seed, &wrong);
  LoadResult load = RunLoad(*data, args, inst->port, args.seconds, false);
  inst->server->Stop();
  EndToEnd e = Summarize(load);
  wrong += e.wrong;

  DurabilityCheck durability;
  if (args.workload == Workload::kReadWrite) {
    durability = CheckDurability(*data, std::move(inst), load);
  }
  Discard(std::move(inst));
  const double rss_mb = PeakRssMiB();
  Discard(SetUpBatch(*data, args, &setups));
  const std::string setup_summary =
      StrCat(setups.size(), ", \"setup_min_s\": ", Num(Percentile(setups, 0)),
             ", \"setup_max_s\": ", Num(Percentile(setups, 1)));
  std::printf(
      "{\"report\": {\"qps_achieved\": %s, \"read_p99_ms\": %s, \"write_p50_ms\": %s, \"write_p99_ms\": %s, \"error_rate\": %s, "
      "\"disk_bytes_per_user_byte\": %s, \"recovery_s\": %s, \"read_samples\": %lld, "
      "\"write_samples\": %lld, \"errors\": %s, \"wrong\": %lld, \"first_wrong\": \"%s\", "
      "\"durability_ok\": %s, \"durability_probes\": %lld, \"durability_failure\": \"%s\", "
      "\"setups\": %s}}\n",
      Num(e.achieved_qps).c_str(), Num(e.read_p99_ms).c_str(), Num(e.write_p50_ms).c_str(),
      Num(e.write_p99_ms).c_str(), Num(e.error_rate).c_str(),
      Num(durability.disk_bytes_per_user_byte).c_str(), Num(durability.recovery_s).c_str(),
      static_cast<long long>(e.reads), static_cast<long long>(e.writes),
      ErrorKindsJson(load).c_str(), static_cast<long long>(wrong),
      chainsplit::JsonEscape(load.first_wrong).c_str(), durability.ok ? "true" : "false",
      static_cast<long long>(durability.probes),
      chainsplit::JsonEscape(durability.failure).c_str(), setup_summary.c_str());
  std::vector<Metric> metrics = {
      {"qps", e.qps, "req/s"},
      {"read_p50_ms", e.read_p50_ms, "ms"},
      {"read_p90_ms", e.read_p90_ms, "ms"},
      {"setup_s", Percentile(setups, 0.5), "s"},
      {"rss_mb", rss_mb, "MiB"},
  };
  PrintResult(wrong == 0 && durability.ok, e.attempted, e.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------
// --trace 1: the traced run. Three replays of one request stream, each
// on a freshly set-up service:
//   U  untraced, through TcpServer (the end-to-end path: the loadgen.*
//      figures and the durability check);
//   A  through the public EpollEngine with a handler that wraps Session
//      and times HandleLine per request, plus the client's round trip;
//   B  the requests A sent, replayed in-process at A's send times on as
//      many threads, calling QueryService::Query/Update with a Trace
//      passed through RequestOptions::trace; then a sample of those
//      requests timed with and without a Trace (TraceOverheadPct).
// Requests pair up across A and B by (connection, sequence number).

struct HandleSpan {
  Clock::time_point start;
  Clock::time_point end;
};

class TimedSessionHandler : public chainsplit::LineHandler {
 public:
  TimedSessionHandler(QueryService* service,
                      const chainsplit::SessionOptions& options,
                      std::vector<HandleSpan>* log)
      : session_(service, options), log_(log) {}
  std::string Greeting() override { return "% chainsplit ready\n.\n"; }
  bool HandleLine(const std::string& line, std::string* out) override {
    HandleSpan span;
    span.start = Clock::now();
    bool keep_open = session_.HandleLine(line, out);
    span.end = Clock::now();
    if (log_ != nullptr) log_->push_back(span);
    return keep_open;
  }

 private:
  chainsplit::Session session_;
  std::vector<HandleSpan>* log_;
};

/// TcpServer's epoll mode, rebuilt from the public engine so each
/// connection's handler can be timed. The factory runs on the loop
/// thread in accept order; log i belongs to the i-th connection.
class TracedServer {
 public:
  TracedServer(QueryService* service, size_t connections) : logs_(connections) {
    chainsplit::SessionOptions options;
    options.tcp_mode = true;
    options.net = &counters_;
    engine_ = std::make_unique<chainsplit::EpollEngine>(
        [this, service, options] {
          std::vector<HandleSpan>* log =
              next_ < logs_.size() ? &logs_[next_] : nullptr;
          ++next_;
          return std::make_unique<TimedSessionHandler>(service, options, log);
        },
        chainsplit::EngineOptions{}, &counters_);
    auto fd = chainsplit::OpenListenSocket("127.0.0.1", 0, 64);
    if (!fd.ok()) Die(fd.status().ToString());
    auto port = chainsplit::BoundPort(*fd);
    if (!port.ok()) Die(port.status().ToString());
    port_ = *port;
    chainsplit::Status started = engine_->Start(*fd);
    if (!started.ok()) Die(started.ToString());
  }
  ~TracedServer() { engine_->Stop(); }
  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  int port() const { return port_; }
  void Stop() { engine_->Stop(); }
  const chainsplit::NetCounters& counters() const { return counters_; }
  const std::vector<HandleSpan>& log(size_t i) const { return logs_[i]; }

 private:
  chainsplit::NetCounters counters_;
  std::vector<std::vector<HandleSpan>> logs_;
  size_t next_ = 0;
  int port_ = 0;
  std::unique_ptr<chainsplit::EpollEngine> engine_;
};

/// Layers of the spans the program records inside Query.
enum Layer { kNoLayer, kParse, kCache, kPlan, kFixpoint, kBuffered, kSld,
             kRest, kStore, kNumLayers };

Layer LayerOf(std::string_view name) {
  if (name == "parse") return kParse;
  if (name == "result_cache_lookup" || name == "plan_cache_lookup") return kCache;
  if (name == "classify" || name == "magic_rewrite" || name == "chain_compile" ||
      name == "split_decision") {
    return kPlan;
  }
  if (name.rfind("fixpoint", 0) == 0 || name == "scc_schedule" || name == "scc") {
    return kFixpoint;
  }
  if (name == "buffered_eval" || name == "partial_eval" || name.rfind("chain_", 0) == 0) {
    return kBuffered;
  }
  if (name == "topdown_sld") return kSld;
  if (name == "apply_rest_goals") return kRest;
  if (name == "result_cache_store") return kStore;
  return kNoLayer;
}

/// Microseconds per layer in one query's span tree: each span counts
/// toward its layer unless an ancestor already belongs to a layer, so
/// nothing is counted twice. Reads the Chrome trace JSON, which is the
/// Trace's public rendering (name, dur, span_id, parent_id per event).
struct SpanFold {
  double us[kNumLayers] = {};
  bool has[kNumLayers] = {};
  /// Self time of the unnamed spans: the root (Query itself) and the
  /// service's "evaluate" wrapper.
  double root_self_us = 0;
  double evaluate_self_us = 0;
};

SpanFold FoldTrace(const std::string& json) {
  struct Event {
    std::string name;
    int64_t dur = 0;
    int parent = -1;
  };
  std::vector<Event> events;
  size_t at = 0;
  auto read_int = [&](const char* key) -> int64_t {
    size_t k = json.find(key, at);
    if (k == std::string::npos) Die("trace json: missing key");
    at = k + std::strlen(key);
    return std::strtoll(json.c_str() + at, nullptr, 10);
  };
  while ((at = json.find("{\"name\":\"", at)) != std::string::npos) {
    at += 9;
    Event e;
    while (at < json.size() && json[at] != '"') {
      if (json[at] == '\\') ++at;
      e.name += json[at++];
    }
    e.dur = read_int("\"dur\":");
    read_int("\"span_id\":");
    e.parent = static_cast<int>(read_int("\"parent_id\":"));
    events.push_back(std::move(e));
  }
  SpanFold fold;
  std::vector<double> child_us(events.size(), 0);
  for (size_t i = 1; i < events.size(); ++i) {
    int p = events[i].parent;
    if (p >= 0 && p < static_cast<int>(events.size())) child_us[p] += events[i].dur;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    double self = static_cast<double>(events[i].dur) - child_us[i];
    if (i == 0) fold.root_self_us += self;
    if (events[i].name == "evaluate") fold.evaluate_self_us += self;
  }
  for (size_t i = 1; i < events.size(); ++i) {
    Layer layer = LayerOf(events[i].name);
    if (layer == kNoLayer) continue;
    bool nested = false;
    for (int p = events[i].parent; p > 0 && p < static_cast<int>(events.size());
         p = events[p].parent) {
      if (LayerOf(events[p].name) != kNoLayer) nested = true;
    }
    if (nested) continue;
    fold.us[layer] += static_cast<double>(events[i].dur);
    fold.has[layer] = true;
  }
  return fold;
}

/// Percentile of span durations, which the Trace records in whole
/// microseconds: each value v stands for [v - 0.5, v + 0.5), and the
/// estimate interpolates within that interval by rank, so a 1-2 us
/// lookup does not read as exactly 1 on every run.
double SpanPercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  const size_t at = std::min(values.size() - 1, static_cast<size_t>(rank));
  const double v = values[at];
  const auto lo = std::lower_bound(values.begin(), values.end(), v);
  const auto hi = std::upper_bound(values.begin(), values.end(), v);
  const double below = static_cast<double>(lo - values.begin());
  const double equal = static_cast<double>(hi - lo);
  return std::max(0.0, v - 0.5 + (rank - below) / equal);
}

struct Replayed {
  double us = 0;  // the Query/Update call
  bool ok = false;
  bool hit = false;
  SpanFold fold;
  chainsplit::SemiNaiveStats seminaive;
  chainsplit::BufferedStats buffered;
  chainsplit::TopDownStats topdown;
};

/// Phase B: replays what A's clients sent, at A's send times.
std::vector<std::vector<Replayed>> Replay(const Dataset& data, QueryService* service,
                                          const LoadResult& load, int64_t* wrong) {
  std::vector<std::vector<Replayed>> out(load.clients.size());
  std::atomic<int64_t> wrong_count{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < load.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      const ClientLog& log = load.clients[c];
      out[c].resize(log.sent.size());
      for (size_t i = 0; i < log.sent.size(); ++i) {
        const Request& request = log.sent[i];
        std::this_thread::sleep_until(start + std::chrono::nanoseconds(log.samples[i].send_ns));
        Replayed& r = out[c][i];
        if (request.is_write) {
          Clock::time_point t0 = Clock::now();
          chainsplit::UpdateResponse u = service->Update(request.line);
          r.us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
          r.ok = u.status.ok();
          continue;
        }
        chainsplit::Trace trace(request.line);
        chainsplit::RequestOptions options;
        options.trace = &trace;
        Clock::time_point t0 = Clock::now();
        QueryResponse q = service->Query(request.line, options);
        r.us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
        r.ok = q.status.ok();
        r.hit = q.result_cache_hit;
        r.fold = FoldTrace(trace.ToChromeJson());
        r.seminaive = q.seminaive_stats;
        r.buffered = q.buffered_stats;
        r.topdown = q.topdown_stats;
        if (r.ok) {
          std::vector<std::string> lines = AnswerLines(q);
          if (!data.Check(request, &lines)) wrong_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wrong += wrong_count.load();
  return out;
}

/// obs.trace_overhead_pct: up to kOverheadRequests of the reads A sent,
/// spread over the run, called in-process with and without a Trace in
/// RequestOptions::trace, alternating request by request (which mode
/// goes first flips every round) so both modes see the same host noise.
/// Each request keeps the path it took in B: a result-cache hit stays a
/// hit, a miss bypasses the cache so it is evaluated every time. Returns
/// how much longer the traced calls took, summing each request's median
/// over the rounds, in percent: the traced against the untraced qps of
/// one in-process client.
double TraceOverheadPct(QueryService* service, const LoadResult& load,
                        const std::vector<std::vector<Replayed>>& replay,
                        double budget_s) {
  struct Op {
    const Request* request;
    chainsplit::RequestOptions options;
    std::vector<double> us[2];  // untraced, traced
  };
  std::vector<std::pair<size_t, size_t>> reads;
  for (size_t c = 0; c < load.clients.size(); ++c) {
    for (size_t i = 0; i < load.clients[c].sent.size(); ++i) {
      if (!load.clients[c].sent[i].is_write) reads.emplace_back(c, i);
    }
  }
  std::vector<Op> ops;
  const size_t n = std::min(kOverheadRequests, reads.size());
  for (size_t k = 0; k < n; ++k) {
    auto [c, i] = reads[k * reads.size() / n];
    Op op;
    op.request = &load.clients[c].sent[i];
    op.options.bypass_cache = !replay[c][i].hit;
    ops.push_back(std::move(op));
  }
  auto call = [&](Op& op, bool traced) {
    const Clock::time_point t0 = Clock::now();
    if (traced) {
      chainsplit::Trace trace(op.request->line);
      chainsplit::RequestOptions options = op.options;
      options.trace = &trace;
      service->Query(op.request->line, options);
    } else {
      service->Query(op.request->line, op.options);
    }
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  for (Op& op : ops) call(op, false);  // refills entries B's writes invalidated
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int round = 0; round < 3 || Clock::now() < end; ++round) {
    for (Op& op : ops) {
      const bool first = (round & 1) != 0;
      op.us[first].push_back(call(op, first));
      op.us[!first].push_back(call(op, !first));
    }
  }
  double sum[2] = {};
  for (Op& op : ops) {
    for (int traced = 0; traced < 2; ++traced) sum[traced] += Percentile(op.us[traced], 0.5);
  }
  return Ratio(sum[1] - sum[0], sum[0]) * 100;
}

double QueryLatencySum(const QueryService& service, double* count) {
  double sum = 0;
  *count = 0;
  for (const chainsplit::MetricSample& s : service.metrics()->Snapshot()) {
    if (s.name == "csdd_query_latency_us_sum") sum += s.value;
    if (s.name == "csdd_query_latency_us_count") *count += s.value;
  }
  return sum;
}

int TracedMain(const Args& args) {
  std::unique_ptr<Dataset> data = Dataset::Make(args.workload, args.seed, args.tiny);
  const double phase_seconds = args.seconds / 3;
  int64_t wrong = 0;
  bool durable_ok = true;
  double unused_setup = 0;

  // U: untraced.
  std::unique_ptr<Instance> u =
      SetUp(*data, args, /*listen=*/true, 0, phase_seconds, &unused_setup);
  Warm(*data, *u, args.seed, &wrong);
  LoadResult load_u = RunLoad(*data, args, u->port, phase_seconds, false);
  u->server->Stop();
  EndToEnd e_u = Summarize(load_u);
  wrong += e_u.wrong;
  DurabilityCheck dur_u;
  if (args.workload == Workload::kReadWrite) {
    dur_u = CheckDurability(*data, std::move(u), load_u);
    durable_ok = durable_ok && dur_u.ok;
  }
  u.reset();

  // A: traced socket run.
  std::unique_ptr<Instance> a =
      SetUp(*data, args, /*listen=*/false, 1, phase_seconds, &unused_setup);
  Warm(*data, *a, args.seed, &wrong);
  auto server = std::make_unique<TracedServer>(
      a->service.get(), Readers() + (args.workload == Workload::kReadWrite));
  const chainsplit::ServiceStats s0 = a->service->stats();
  const chainsplit::DurabilityStats d0 = a->service->durability_stats();
  double q_count0 = 0, q_count1 = 0;
  const double q_sum0 = QueryLatencySum(*a->service, &q_count0);
  LoadResult load_a = RunLoad(*data, args, server->port(), phase_seconds, true);
  server->Stop();
  const double q_sum1 = QueryLatencySum(*a->service, &q_count1);
  const chainsplit::ServiceStats s1 = a->service->stats();
  const chainsplit::DurabilityStats d1 = a->service->durability_stats();
  EndToEnd e_a = Summarize(load_a);
  wrong += e_a.wrong;
  const chainsplit::NetCounters& net = server->counters();
  const double queue_max = net.queue_high_watermark.load();
  const double rejected = net.rejected_overload.load() + net.rejected_oversize.load();
  const double bytes_per_req = Ratio(net.bytes_out.load(), net.responses.load());
  const double base_bytes_per_fact = Ratio(a->base_arena_bytes, a->base_facts);
  int64_t write_user_bytes = a->user_bytes;
  for (int64_t k : load_a.acked_writes) {
    write_user_bytes += static_cast<int64_t>(data->Write(k).line.size()) + 1;
  }
  for (size_t c = 0; c < load_a.clients.size(); ++c) {
    if (server->log(c).size() != load_a.clients[c].samples.size()) {
      Die("traced run: handler spans do not pair with client requests");
    }
  }
  std::vector<std::vector<HandleSpan>> handle_logs;
  for (size_t c = 0; c < load_a.clients.size(); ++c) handle_logs.push_back(server->log(c));
  server.reset();
  DurabilityCheck dur_a;
  if (args.workload == Workload::kReadWrite) {
    dur_a = CheckDurability(*data, std::move(a), load_a);
    durable_ok = durable_ok && dur_a.ok;
  }
  a.reset();

  // B: in-process replay with traces.
  std::unique_ptr<Instance> b =
      SetUp(*data, args, /*listen=*/false, 2, phase_seconds, &unused_setup);
  Warm(*data, *b, args.seed, &wrong);
  std::vector<std::vector<Replayed>> replay = Replay(*data, b->service.get(), load_a, &wrong);
  const double trace_overhead_pct =
      TraceOverheadPct(b->service.get(), load_a, replay, phase_seconds / 2);
  Discard(std::move(b));

  // Pair A and B per request.
  std::vector<double> net_self, session_self, query_us, update_us;
  std::vector<double> layer_us[kNumLayers];
  double layer_sum[kNumLayers] = {};
  double sum_rtt = 0, sum_handle = 0, sum_query = 0, sum_unattributed = 0;
  double sum_root_self = 0, sum_evaluate_self = 0;
  int64_t paired = 0;
  chainsplit::SemiNaiveStats sn;
  chainsplit::BufferedStats bs;
  int64_t sld_steps = 0, evaluated = 0;
  for (size_t c = 0; c < load_a.clients.size(); ++c) {
    const ClientLog& log = load_a.clients[c];
    for (size_t i = 0; i < log.samples.size(); ++i) {
      const Sample& s = log.samples[i];
      const Replayed& r = replay[c][i];
      const double handle = std::chrono::duration<double, std::micro>(
          handle_logs[c][i].end - handle_logs[c][i].start).count();
      session_self.push_back(handle - r.us);
      if (log.sent[i].is_write) {
        update_us.push_back(r.us);
        continue;
      }
      if (s.outcome != kOk && s.outcome != kError) continue;
      const double rtt = (s.recv_ns - s.send_ns) / 1e3;
      ++paired;
      net_self.push_back(rtt - handle);
      sum_rtt += rtt;
      sum_handle += handle;
      sum_query += r.us;
      query_us.push_back(r.us);
      double named = 0;
      for (int l = 1; l < kNumLayers; ++l) {
        named += r.fold.us[l];
        layer_sum[l] += r.fold.us[l];
        if (r.fold.has[l]) layer_us[l].push_back(r.fold.us[l]);
      }
      sum_unattributed += r.us - named;
      sum_root_self += r.fold.root_self_us;
      sum_evaluate_self += r.fold.evaluate_self_us;
      if (r.ok && !r.hit) {
        ++evaluated;
        sn.iterations += r.seminaive.iterations;
        sn.total_derived += r.seminaive.total_derived;
        sn.counters.Add(r.seminaive.counters);
        sn.storage.probes += r.seminaive.storage.probes;
        sn.storage.hash_collisions += r.seminaive.storage.hash_collisions;
        bs.nodes += r.buffered.nodes;
        bs.buffered_values += r.buffered.buffered_values;
        sld_steps += r.topdown.steps;
      }
    }
  }
  const double n = static_cast<double>(std::max<int64_t>(paired, 1));
  const double mean_rtt = sum_rtt / n;
  const double query_a_mean = Ratio(q_sum1 - q_sum0, q_count1 - q_count0);
  auto share = [&](double total) { return Ratio(total / n, mean_rtt); };
  const double net_share = Ratio(mean_rtt - sum_handle / n, mean_rtt);
  const double session_share = Ratio(sum_handle / n - query_a_mean, mean_rtt);
  double layer_total = net_share + session_share + share(sum_unattributed);
  for (int l = 1; l < kNumLayers; ++l) layer_total += share(layer_sum[l]);
  const double ev = static_cast<double>(evaluated);
  auto per = [&](double total) { return Ratio(total, ev); };
  auto hit_rate = [](int64_t hits, int64_t misses) {
    return Ratio(hits, hits + misses);
  };

  std::vector<Metric> m = {
      {"net.self_us_p50", Percentile(net_self, 0.50), "us"},
      {"net.self_us_p99", Percentile(net_self, 0.99), "us"},
      {"net.queue_depth_max", queue_max, "count"},
      {"net.rejected", rejected, "count"},
      {"net.bytes_out_per_req", bytes_per_req, "B/req"},
      {"net.share", net_share, "ratio"},
      {"service.session_self_us_p50", Percentile(session_self, 0.50), "us"},
      {"service.session_share", session_share, "ratio"},
      {"service.query_us_p50", Percentile(query_us, 0.50), "us"},
      {"service.query_us_p99", Percentile(query_us, 0.99), "us"},
      {"service.cache_lookup_us_p50", SpanPercentile(layer_us[kCache], 0.50), "us"},
      {"service.cache_share", share(layer_sum[kCache]), "ratio"},
      {"service.store_share", share(layer_sum[kStore]), "ratio"},
      {"service.unattributed_share", Ratio(sum_unattributed, sum_query), "ratio"},
      {"service.unattributed_rtt_share", share(sum_unattributed), "ratio"},
      {"service.result_hit_rate",
       hit_rate(s1.result_cache_hits - s0.result_cache_hits,
                s1.result_cache_misses - s0.result_cache_misses), "ratio"},
      {"service.plan_hit_rate",
       hit_rate(s1.plan_cache_hits - s0.plan_cache_hits,
                s1.plan_cache_misses - s0.plan_cache_misses), "ratio"},
      {"service.invalidations_per_write",
       Ratio(s1.result_cache_invalidations - s0.result_cache_invalidations,
             s1.updates - s0.updates), "ratio"},
      {"service.update_us_p50", Percentile(update_us, 0.50), "us"},
      {"service.update_us_p99", Percentile(update_us, 0.99), "us"},
      {"ast.parse_us_p50", SpanPercentile(layer_us[kParse], 0.50), "us"},
      {"ast.parse_share", share(layer_sum[kParse]), "ratio"},
      {"core.plan_us_p50", SpanPercentile(layer_us[kPlan], 0.50), "us"},
      {"core.plan_share", share(layer_sum[kPlan]), "ratio"},
      {"core.fixpoint_us_p50", SpanPercentile(layer_us[kFixpoint], 0.50), "us"},
      {"core.fixpoint_share", share(layer_sum[kFixpoint]), "ratio"},
      {"core.buffered_us_p50", SpanPercentile(layer_us[kBuffered], 0.50), "us"},
      {"core.buffered_share", share(layer_sum[kBuffered]), "ratio"},
      {"core.rest_goals_share", share(layer_sum[kRest]), "ratio"},
      {"core.buffered_states_per_query", per(bs.nodes), "count"},
      {"core.buffered_values_per_query", per(bs.buffered_values), "count"},
      {"engine.iterations_per_query", per(sn.iterations), "count"},
      {"engine.derived_per_query", per(sn.total_derived), "count"},
      {"engine.tuples_considered_per_query", per(sn.counters.tuples_considered), "count"},
      {"engine.dedup_waste",
       sn.counters.derivations == 0 ? 0 : 1 - Ratio(sn.counters.inserted, sn.counters.derivations),
       "ratio"},
      {"engine.sld_steps_per_query", per(sld_steps), "count"},
      {"engine.sld_us_p50", SpanPercentile(layer_us[kSld], 0.50), "us"},
      {"engine.sld_share", share(layer_sum[kSld]), "ratio"},
      {"rel.probes_per_query", per(sn.storage.probes), "count"},
      {"rel.collisions_per_probe", Ratio(sn.storage.hash_collisions, sn.storage.probes), "ratio"},
      {"rel.overlay_bytes_per_query",
       Ratio(s1.overlay_bytes - s0.overlay_bytes, s1.shared_evals - s0.shared_evals), "B"},
      {"rel.base_bytes_per_fact", base_bytes_per_fact, "B"},
      {"storage.wal_bytes_per_user_byte", Ratio(d1.wal_bytes, write_user_bytes), "ratio"},
      {"storage.snapshots", static_cast<double>(d1.snapshots_written - d0.snapshots_written), "count"},
      {"storage.wal_syncs_per_s", Ratio(d1.wal_syncs - d0.wal_syncs, load_a.seconds), "1/s"},
      {"storage.recovery_s", dur_a.recovery_s, "s"},
      {"storage.disk_bytes_per_user_byte", dur_u.disk_bytes_per_user_byte, "ratio"},
      {"obs.trace_overhead_pct", trace_overhead_pct, "%"},
      {"loadgen.writer_lag_ms_p99", e_a.writer_lag_p99_ms, "ms"},
      {"loadgen.error_rate", e_u.error_rate, "ratio"},
      {"loadgen.write_p50_ms", e_u.write_p50_ms, "ms"},
      {"loadgen.write_p99_ms", e_u.write_p99_ms, "ms"},
      {"recon.rtt_us_mean", mean_rtt, "us"},
      {"recon.layer_sum_share", layer_total, "ratio"},
      {"recon.gap_share", layer_total - 1, "ratio"},
  };
  std::printf("{\"report\": {\"paired_requests\": %lld, \"evaluated_queries\": %lld, "
              "\"query_us_mean_socket\": %s, \"query_us_mean_replay\": %s, "
              "\"root_self_us_mean\": %s, \"evaluate_self_us_mean\": %s, "
              "\"qps_plain_server\": %s, \"qps_timed_handler\": %s, "
              "\"errors\": %s, \"wrong\": %lld}}\n",
              static_cast<long long>(paired), static_cast<long long>(evaluated),
              Num(query_a_mean).c_str(), Num(sum_query / n).c_str(),
              Num(sum_root_self / n).c_str(), Num(sum_evaluate_self / n).c_str(),
              Num(e_u.qps).c_str(), Num(e_a.qps).c_str(),
              ErrorKindsJson(load_u).c_str(), static_cast<long long>(wrong));
  PrintResult(wrong == 0 && durable_ok, e_u.attempted + e_a.attempted,
              e_u.failed + e_a.failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  std::filesystem::create_directories(args.tmp_dir);
  perfbench::PrintProvenance(args);
  return args.trace ? perfbench::TracedMain(args) : perfbench::RunEndToEnd(args);
}
