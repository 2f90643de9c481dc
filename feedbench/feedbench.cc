// feedbench: the end-to-end benchmark of the piggybacking system.
//
//   feedbench --workload plan|read-mostly|write-churn --seed N --seconds S
//             --trace 0|1 --out DIR
//
// One process, one client thread, closed loop. The benchmark generates the
// graph, the rates and the operation sequence from --seed, hands the program
// only those, times the calls it makes, and checks every output against its
// own reference model (reference.h). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones, and
// a traced run also writes its spans as chrome://tracing JSON under --out.
// See README.md for the workloads, the metrics and the reference figures.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster_service.h"
#include "core/planner.h"
#include "gen/generators.h"
#include "reference.h"
#include "simd/dispatch.h"
#include "store/feed_service.h"
#include "workload/workload.h"

namespace feedbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: set-up time counts from
// here.
const Clock::time_point kProcessStart = Clock::now();

// ---------------------------------------------------------------------------
// Workload make-up. README.md explains each choice.
// ---------------------------------------------------------------------------
constexpr size_t kPlanThreads = 2;       // fixed, never "auto"
constexpr size_t kFeedSize = 10;         // PrototypeOptions default
constexpr size_t kPlanGraphs = 3;        // plan: graphs of each kind, so one seed's hubs weigh less
constexpr size_t kNosyNodes = 6000;      // plan: nosy graphs
constexpr size_t kChitchatNodes = 1500;  // plan: chitchat graphs
constexpr size_t kReadNodes = 8000;      // read-mostly service
constexpr double kReadRatio = 5.0;       // consumption : production
constexpr size_t kReadWarmup = 800000;   // requests before timing
constexpr size_t kReadCycle = size_t{1} << 21;  // pre-drawn request cycle
constexpr size_t kReadBlock = 16384;     // requests per measurement block
constexpr size_t kChurnNodes = 5000;     // write-churn cluster
constexpr size_t kChurnShards = 4;
constexpr size_t kChurnEvery = 100;      // every 100th request is a Follow/Unfollow
constexpr size_t kChurnWarmup = 100000;  // requests before the checkpoint
constexpr size_t kEpisodeOps = 45000;    // requests per episode: 450 churn ops
constexpr uint64_t kSnapshotEvery = 8000;  // WAL records per shard snapshot
constexpr double kMaxRequestRate = 500000;  // requests/s the read-mostly share log makes room for
constexpr size_t kMaxStoredSpans = 200000;
constexpr size_t kMaxMessages = 8;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Samples and metrics
// ---------------------------------------------------------------------------
class Samples {
 public:
  void Add(double x) { v_.push_back(static_cast<float>(x)); }
  void Reserve(size_t n) { v_.reserve(n); }
  void Clear() { v_.clear(); }
  size_t size() const { return v_.size(); }
  double Sum() const {
    double s = 0;
    for (float x : v_) s += x;
    return s;
  }
  /// Nearest-rank quantile (0 when empty).
  double Quantile(double q) {
    if (v_.empty()) return 0;
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
    rank = std::clamp<size_t>(rank, 1, v_.size()) - 1;
    std::nth_element(v_.begin(), v_.begin() + static_cast<ptrdiff_t>(rank), v_.end());
    return v_[rank];
  }
  double Median() { return Quantile(0.5); }

 private:
  std::vector<float> v_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"ops_per_s", "1/s"},
    {"p50_us", "us"},     {"messages_per_request", "msg"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gen.graph_s", "s"},
    {"core.nosy.plan_s", "s"},
    {"core.chitchat.plan_s", "s"},
    {"core.schedule_cost", "msg/t"},
    {"core.nosy.iterations", "count"},
    {"core.nosy.candidates", "count"},
    {"core.nosy.edges_covered", "count"},
    {"core.nosy.iteration_first_s", "s"},
    {"core.nosy.iteration_last_s", "s"},
    {"core.chitchat.steps", "count"},
    {"core.chitchat.step_s", "s"},
    {"feed.replan_us", "us"},
    {"store.share_p50_us", "us"},
    {"store.share_p99_us", "us"},
    {"store.share_samples", "count"},
    {"store.query_p50_us", "us"},
    {"store.query_p99_us", "us"},
    {"store.query_samples", "count"},
    {"store.share_self_us", "us"},
    {"store.query_self_us", "us"},
    {"store.interest_bytes_per_edge", "B"},
    {"store.serving_rebuilds", "count"},
    {"store.post_churn_op_us", "us"},
    {"core.incremental.follow_us", "us"},
    {"core.incremental.unfollow_us", "us"},
    {"core.incremental.repairs", "count"},
    {"cluster.cross_messages_per_request", "msg"},
    {"cluster.replicas", "count"},
    {"cluster.imbalance", "ratio"},
    {"durability.wal_append_us", "us"},
    {"durability.wal_flush_us", "us"},
    {"durability.snapshot_write_us", "us"},
    {"durability.snapshots", "count"},
    {"durability.recover_s", "s"},
    {"durability.disk_bytes", "B"},
    {"durability.recover_wal_records", "count"},
    {"durability.recover_snapshot_events", "count"},
    {"durability.recover_wal_bytes", "B"},
    {"check.sweep_queries", "count"},
    {"check.sweep_trimmed", "count"},
    {"trace.spans", "count"},
    {"bench.units", "count"},
    {"bench.fast_units", "count"},
};

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into each layer, kept in
// memory, self time aggregated per span name, written out at the end.
// ---------------------------------------------------------------------------
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  void Begin(const char* name, uint64_t request) {
    Open o{name, NowNs(), 0, -1, request};
    if (stored_.size() < kMaxStoredSpans) {
      o.slot = static_cast<int64_t>(stored_.size());
      const int64_t parent = open_.empty() ? -1 : open_.back().slot;
      stored_.push_back({name, o.start_ns, 0, parent, request});
    }
    open_.push_back(o);
  }

  void End() {
    const Open o = open_.back();
    open_.pop_back();
    const int64_t end = NowNs();
    const int64_t dur = end - o.start_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    SelfTimes(o.name).Add(static_cast<double>(dur - o.child_ns) / 1e3);
    if (o.slot >= 0) stored_[static_cast<size_t>(o.slot)].end_ns = end;
    ++spans_;
  }

  /// Self-time samples (microseconds) of every span named `name`.
  Samples& SelfTimes(const char* name) {
    for (auto& [n, s] : self_) {
      if (n == name || std::strcmp(n, name) == 0) return s;
    }
    self_.emplace_back(name, Samples{});
    return self_.back().second;
  }

  uint64_t spans() const { return spans_; }

  /// chrome://tracing JSON with a self-time summary per span name.
  bool Write(const fs::path& path, const std::string& extra_json) {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    const int64_t t0 = stored_.empty() ? 0 : stored_.front().start_ns;
    for (size_t i = 0; i < stored_.size(); ++i) {
      const Stored& s = stored_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,\"request\":%llu}}",
                    i ? "," : "", s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out << buf;
    }
    out << "],\"selfTimeUs\":{";
    bool first = true;
    for (auto& [n, s] : self_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"count\":%zu,\"p50\":%.4f,\"p99\":%.4f,\"total\":%.1f}",
                    first ? "" : ",", n, s.size(), s.Median(), s.Quantile(0.99), s.Sum());
      out << buf;
      first = false;
    }
    out << "},\"spansTotal\":" << spans_ << ",\"spansStored\":" << stored_.size()
        << extra_json << "}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int64_t slot;
    uint64_t request;
  };
  struct Stored {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  bool on_;
  std::vector<Open> open_;
  std::vector<Stored> stored_;
  std::vector<std::pair<const char*, Samples>> self_;
  uint64_t spans_ = 0;
};

/// A span that costs one branch when tracing is off.
class Span {
 public:
  Span(Tracer& t, const char* name, uint64_t request = 0) : t_(t.on() ? &t : nullptr) {
    if (t_) t_->Begin(name, request);
  }
  ~Span() {
    if (t_) t_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------
/// Median time in µs of `reps` runs of a fixed L1-resident loop of
/// `passes` passes on the calling thread's CPU.
double LoopMicros(int reps, int passes) {
  static volatile uint32_t sink = 0;
  uint32_t a[1024];
  Samples loop_us;
  for (int rep = 0; rep < reps; ++rep) {
    std::fill(std::begin(a), std::end(a), 1u);
    const int64_t t0 = NowNs();
    uint32_t x = 0;
    for (int pass = 0; pass < passes; ++pass) {
      for (uint32_t& y : a) {
        x += y * 2654435761u;
        y = x >> 7;
      }
    }
    sink = sink + x;
    loop_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return loop_us.Median();
}

/// The speed of the CPUs the benchmark runs on. On a shared host a CPU runs
/// markedly slower for seconds to minutes at a time while another tenant
/// keeps its sibling hardware thread busy (a fixed loop takes about 1.5x as
/// long), and this moves between CPUs. The probe pins the process to the
/// CPUs that run a short fixed loop fastest, re-picks them between steps of
/// the set-up and between units of timed work, and times the loop around
/// every unit, so that units run while a CPU was slowed can be told apart by
/// a measurement that does not involve the program. Threads the program
/// starts later inherit the pinning.
class HostProbe {
 public:
  /// Pins the process to the `count` fastest CPUs of its affinity mask.
  void Pin(size_t count) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    count_ = count;
    Repin();
    for (const auto& [us, cpu] : chosen_) {
      at_start_ += (at_start_.empty() ? "" : ",") + std::to_string(cpu) + ":" +
                   std::to_string(us).substr(0, 4) + "us";
    }
  }

  /// Moves the process to the `count` CPUs that now run the loop fastest.
  void Repin() {
    if (count_ == 0) return;
    std::vector<std::pair<double, int>> speed;  // (loop µs, cpu)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_) && PinThread(cpu)) speed.emplace_back(LoopMicros(7, 20), cpu);
    }
    std::sort(speed.begin(), speed.end());
    speed.resize(std::min(count_, speed.size()));
    CPU_ZERO(&mask_);
    for (const auto& [us, cpu] : speed) CPU_SET(cpu, &mask_);
    if (speed.empty() || sched_setaffinity(0, sizeof(mask_), &mask_) != 0) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
      mask_ = allowed_;
      speed.clear();
    }
    chosen_ = std::move(speed);
  }

  /// Repin(), at most once per `seconds`.
  void RepinEvery(double seconds) {
    if (SecondsSince(last_repin_) < seconds) return;
    Repin();
    last_repin_ = Clock::now();
  }

  /// Loop time in µs on the slowest pinned CPU (on the current CPU when
  /// unpinned).
  double Measure() {
    double slowest = 0;
    if (chosen_.size() <= 1) {
      slowest = LoopMicros(7, 20);
    } else {
      for (const auto& [us, cpu] : chosen_) {
        if (PinThread(cpu)) slowest = std::max(slowest, LoopMicros(7, 20));
      }
      sched_setaffinity(0, sizeof(mask_), &mask_);
    }
    readings_.Add(slowest);
    return slowest;
  }

  /// Whether a unit whose probes read `us` ran at the best speed seen: within
  /// kFastSlack of the 5th percentile of every reading so far (a percentile,
  /// not the minimum, so that one lucky reading does not set the level).
  bool Fast(double us) { return us <= kFastSlack * readings_.Quantile(0.05); }

  /// "cpu:loop-µs" of every CPU pinned at start-up, or "unpinned".
  std::string Describe() const { return at_start_.empty() ? "unpinned" : at_start_; }

 private:
  static constexpr double kFastSlack = 1.25;

  static bool PinThread(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  size_t count_ = 0;
  cpu_set_t allowed_;
  cpu_set_t mask_;
  std::vector<std::pair<double, int>> chosen_;
  Clock::time_point last_repin_ = Clock::now();
  std::string at_start_;
  Samples readings_;
};

/// Repeated units of timed work, each with the host probe's reading around
/// it. The end-to-end figures are medians over the units run at the best
/// speed the probe saw (over every unit when none was).
class Units {
 public:
  void Add(double value, double probe_us) { units_.push_back({value, probe_us}); }
  size_t size() const { return units_.size(); }
  size_t FastCount(HostProbe& probe) const {
    return static_cast<size_t>(std::count_if(units_.begin(), units_.end(), [&](const Unit& u) {
      return probe.Fast(u.probe_us);
    }));
  }
  double FastMedian(HostProbe& probe) const {
    const bool any = FastCount(probe) > 0;
    Samples values;
    for (const Unit& u : units_) {
      if (!any || probe.Fast(u.probe_us)) values.Add(u.value);
    }
    return values.Median();
  }

 private:
  struct Unit {
    double value;
    double probe_us;
  };
  std::vector<Unit> units_;
};

// ---------------------------------------------------------------------------
// Run state: checks, operation counts and metric values.
// ---------------------------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path out;
};

class Run {
 public:
  explicit Run(const Args& args) : args(args), tracer(args.trace) {}

  const Args args;
  Tracer tracer;
  HostProbe probe;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// A wrong output: the run is not correct.
  void Wrong(const std::string& what) {
    correct = false;
    Note("wrong output", what);
  }
  /// An operation the program refused or could not complete.
  void OpFailed(const char* op, const piggy::Status& st) {
    ++failed;
    Note(op, st.ToString());
  }
  /// A negative check: `verdict` is what a check said about a deliberately
  /// broken input, and an empty verdict means the check missed it.
  void MustCatch(const char* what, const std::string& verdict) {
    if (verdict.empty()) Wrong(std::string("check did not catch ") + what);
    std::fprintf(stderr, "negative check (%s): %s\n", what,
                 verdict.empty() ? "NOT caught" : "caught");
  }

  void Set(const char* name, double value) { values_[name] = value; }
  double Get(const char* name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }
  bool Has(const char* name) const { return values_.count(name) != 0; }

 private:
  void Note(const char* kind, const std::string& what) {
    if (++notes_ <= kMaxMessages) std::fprintf(stderr, "%s: %s\n", kind, what.c_str());
  }
  std::map<std::string, double> values_;
  size_t notes_ = 0;
};

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Resident memory in MB from /proc/self/status: `field` is "VmRSS:" (now)
/// or "VmHWM:" (peak).
double ResidentMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) return std::strtod(line.c_str() + len, nullptr) / 1024.0;
  }
  return 0;
}

/// The paper's rate model (Sec. 4.1): production follows log(1 + followers),
/// consumption log(1 + followees), mean production 1.
piggy::Workload MakeRates(const piggy::Graph& g, double read_write_ratio) {
  piggy::WorkloadOptions options;
  options.read_write_ratio = read_write_ratio;
  auto w = piggy::GenerateWorkload(g, options);
  if (!w.ok()) {
    std::fprintf(stderr, "rate generation failed: %s\n", w.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(w).MoveValueOrDie();
}

piggy::Graph MakeGraph(Run& run, size_t nodes, uint64_t seed) {
  Span span(run.tracer, "gen.graph");
  const auto t0 = Clock::now();
  piggy::SocialNetworkOptions options;
  options.num_nodes = nodes;
  auto g = piggy::GenerateSocialNetwork(options, seed);
  if (!g.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n", g.status().ToString().c_str());
    std::exit(3);
  }
  run.Set("gen.graph_s", run.Get("gen.graph_s") + SecondsSince(t0));
  return std::move(g).MoveValueOrDie();
}

// Progress-hook recorder: timestamps of every report of one plan.
struct ProgressLog {
  Clock::time_point start;
  std::vector<double> at_s;

  std::function<void(const piggy::PlanProgress&)> Hook() {
    return [this](const piggy::PlanProgress&) { at_s.push_back(SecondsSince(start)); };
  }
};

// ---------------------------------------------------------------------------
// plan: repeated Planner::Plan calls, no serving.
// ---------------------------------------------------------------------------
void PlanWorkload(Run& run) {
  struct Input {
    piggy::Graph graph;
    piggy::Workload rates;
  };
  Rng rng(run.args.seed);
  std::vector<Input> nosy_inputs, chitchat_inputs;
  for (size_t i = 0; i < kPlanGraphs; ++i) {
    piggy::Graph g = MakeGraph(run, kNosyNodes, rng.Next());
    piggy::Workload w = MakeRates(g, kReadRatio);
    nosy_inputs.push_back({std::move(g), std::move(w)});
    run.probe.Repin();
  }
  for (size_t i = 0; i < kPlanGraphs; ++i) {
    piggy::Graph g = MakeGraph(run, kChitchatNodes, rng.Next());
    piggy::Workload w = MakeRates(g, kReadRatio);
    chitchat_inputs.push_back({std::move(g), std::move(w)});
    run.probe.Repin();
  }
  auto nosy = piggy::MakePlanner("nosy").MoveValueOrDie();
  auto chitchat = piggy::MakePlanner("chitchat").MoveValueOrDie();
  const double rss_base_mb = ResidentMb("VmRSS:");

  Samples nosy_s, chitchat_s, first_iter_s, last_iter_s, chitchat_reports;
  // Every timed plan is a unit of its graph.
  std::vector<Units> nosy_units(kPlanGraphs), chitchat_units(kPlanGraphs);
  piggy::PlanResult last_nosy;

  // One plan plus its checks; returns false if it failed. `units`, when set,
  // takes the plan's wall time, and timed plans feed the per-layer metrics.
  auto plan_once = [&](const piggy::Planner& planner, const Input& in, Units* units,
                       uint64_t request) {
    const bool timed = units != nullptr;
    double probe_us = 0;
    if (timed) {
      run.probe.RepinEvery(1.0);
      probe_us = run.probe.Measure();
    }
    ProgressLog progress;
    piggy::PlanContext ctx;
    ctx.num_threads = kPlanThreads;
    if (run.tracer.on()) ctx.progress = progress.Hook();
    ++run.attempted;
    const bool is_nosy = planner.name() == "nosy";
    Span outer(run.tracer, "plan.request", request);
    progress.start = Clock::now();
    auto result = [&] {
      Span span(run.tracer, is_nosy ? "core.nosy.plan" : "core.chitchat.plan", request);
      return planner.Plan(in.graph, in.rates, ctx);
    }();
    const double took = SecondsSince(progress.start);
    if (!result.ok()) {
      run.OpFailed("plan", result.status());
      return false;
    }
    piggy::PlanResult plan = std::move(result).MoveValueOrDie();
    {
      Span span(run.tracer, "check.schedule", request);
      const std::string verdict =
          CheckSchedule(in.graph, in.rates, plan.schedule, plan.final_cost);
      if (!verdict.empty()) run.Wrong(planner.name() + ": " + verdict);
    }
    if (!timed) return true;
    units->Add(took, std::max(probe_us, run.probe.Measure()));
    if (is_nosy) {
      nosy_s.Add(took);
      if (!progress.at_s.empty()) {
        first_iter_s.Add(progress.at_s.front());
        const size_t n = progress.at_s.size();
        last_iter_s.Add(n > 1 ? progress.at_s[n - 1] - progress.at_s[n - 2]
                              : progress.at_s[0]);
      }
      last_nosy = std::move(plan);
    } else {
      chitchat_s.Add(took);
      chitchat_reports.Add(static_cast<double>(progress.at_s.size()));
    }
    return true;
  };

  // Warm-up: one untimed plan of each kind.
  plan_once(*nosy, nosy_inputs[0], nullptr, 0);
  plan_once(*chitchat, chitchat_inputs[0], nullptr, 0);

  // Rounds plan every graph once until --seconds have passed.
  run.Set("setup_s", SecondsSince(kProcessStart));
  const auto window = Clock::now();
  uint64_t request = 1;
  bool ok = true;
  while (ok && SecondsSince(window) < run.args.seconds) {
    for (size_t i = 0; i < kPlanGraphs && ok; ++i) {
      ok = plan_once(*nosy, nosy_inputs[i], &nosy_units[i], request++);
    }
    for (size_t i = 0; i < kPlanGraphs && ok; ++i) {
      ok = plan_once(*chitchat, chitchat_inputs[i], &chitchat_units[i], request++);
    }
  }
  run.Set("peak_rss_mb", ResidentMb("VmHWM:") - rss_base_mb);
  const Input& big = nosy_inputs.back();

  // Negative check: the last nosy schedule with one push removed.
  {
    piggy::Schedule broken = last_nosy.schedule;
    // A push that serves its edge alone; removed after the scan, not during.
    piggy::Edge victim{0, 0};
    bool found = false;
    broken.ForEachPush([&](const piggy::Edge& e) {
      if (!found && !broken.IsPull(e.src, e.dst) && !broken.IsHubCovered(e.src, e.dst)) {
        victim = e;
        found = true;
      }
    });
    if (found) broken.RemovePush(victim.src, victim.dst);
    run.MustCatch("schedule with one push removed",
                  found ? CheckSchedule(big.graph, big.rates, broken, last_nosy.final_cost)
                        : std::string());
  }

  const double total_rate = big.rates.TotalProduction() + big.rates.TotalConsumption();
  // A round's time is the sum over graphs of each graph's median plan time.
  double round_s = 0, nosy_s_sum = 0;
  size_t units = 0, fast_units = 0;
  for (auto* kind : {&nosy_units, &chitchat_units}) {
    for (const Units& u : *kind) {
      const double median_s = u.FastMedian(run.probe);
      round_s += median_s;
      if (kind == &nosy_units) nosy_s_sum += median_s;
      units += u.size();
      fast_units += u.FastCount(run.probe);
    }
  }
  run.Set("ops_per_s", static_cast<double>(2 * kPlanGraphs) / round_s);
  run.Set("p50_us", nosy_s_sum / kPlanGraphs * 1e6);
  run.Set("bench.units", static_cast<double>(units));
  run.Set("bench.fast_units", static_cast<double>(fast_units));
  std::fprintf(stderr, "units: %zu plans, %zu at the best host speed\n", units, fast_units);
  run.Set("messages_per_request", last_nosy.final_cost / total_rate);

  size_t candidates = 0, covered = 0;
  for (const auto& it : last_nosy.iterations) {
    candidates += it.candidates;
    covered += it.edges_covered;
  }
  const double cc_median = chitchat_s.Median();
  const double cc_steps = chitchat_reports.Median() * 256;
  run.Set("core.nosy.plan_s", nosy_s.Median());
  run.Set("core.chitchat.plan_s", cc_median);
  run.Set("core.schedule_cost", last_nosy.final_cost);
  run.Set("core.nosy.iterations", static_cast<double>(last_nosy.iterations.size()));
  run.Set("core.nosy.candidates", static_cast<double>(candidates));
  run.Set("core.nosy.edges_covered", static_cast<double>(covered));
  run.Set("core.nosy.iteration_first_s", first_iter_s.Median());
  run.Set("core.nosy.iteration_last_s", last_iter_s.Median());
  run.Set("core.chitchat.steps", cc_steps);
  run.Set("core.chitchat.step_s", cc_steps > 0 ? cc_median / cc_steps : 0);
}

// ---------------------------------------------------------------------------
// Serving: a pre-drawn operation sequence run through FeedService or
// ClusterService, every query checked against the reference model.
// ---------------------------------------------------------------------------
enum class OpKind : uint8_t { kShare, kQuery, kFollow, kUnfollow };

struct Op {
  NodeId user;
  NodeId producer;  // Follow/Unfollow only
  OpKind kind;
};

/// Draws `count` requests the way the paper's prototype issues them: a share
/// by u with probability rp(u) / R, a query by u with probability rc(u) / R.
/// When `churn_every` > 0, every churn_every-th operation is instead a Follow
/// or an Unfollow (alternating, so the edge count stays level), simulated on
/// `sim` so that every Unfollow removes a current edge and every Follow adds a
/// new one.
std::vector<Op> DrawOps(const piggy::Workload& w, size_t count, size_t churn_every,
                        FollowSets* sim, Rng& rng) {
  const size_t n = w.num_users();
  std::vector<double> cum(2 * n), cum_rp(n), cum_rc(n);
  double acc = 0, acc_p = 0, acc_c = 0;
  for (size_t u = 0; u < n; ++u) {
    acc += w.production[u];
    cum[u] = acc;
    acc_p += w.production[u];
    cum_rp[u] = acc_p;
  }
  for (size_t u = 0; u < n; ++u) {
    acc += w.consumption[u];
    cum[n + u] = acc;
    acc_c += w.consumption[u];
    cum_rc[u] = acc_c;
  }
  auto pick = [&rng](const std::vector<double>& c) {
    const double x = rng.Uniform() * c.back();
    const size_t i = static_cast<size_t>(std::upper_bound(c.begin(), c.end(), x) - c.begin());
    return static_cast<NodeId>(std::min(i, c.size() - 1));
  };
  std::vector<Op> ops;
  ops.reserve(count);
  bool follow_next = true;
  for (size_t i = 0; i < count; ++i) {
    if (churn_every > 0 && i % churn_every == churn_every - 1) {
      // Readers churn in proportion to how much they read; follows go to
      // producers in proportion to how much they share.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const NodeId v = pick(cum_rc);
        if (follow_next) {
          const NodeId p = pick(cum_rp);
          if (p == v || sim->Follows(v, p)) continue;
          sim->Add(v, p);
          ops.push_back({v, p, OpKind::kFollow});
        } else {
          const auto& f = sim->Followees(v);
          if (f.empty()) continue;
          const NodeId p = f[rng.Below(f.size())];
          sim->Remove(v, p);
          ops.push_back({v, p, OpKind::kUnfollow});
        }
        follow_next = !follow_next;
        break;
      }
      if (ops.size() == i + 1) continue;
    }
    const NodeId x = pick(cum);
    ops.push_back(x < n ? Op{x, 0, OpKind::kShare}
                        : Op{static_cast<NodeId>(x - n), 0, OpKind::kQuery});
  }
  return ops;
}

/// Latencies of the timed window, kept per block of `block_ops` requests (a
/// write-churn episode is one block) so that the benchmark's memory does not
/// grow with the number of requests served. Each block is a unit: the host
/// probe runs before and after it (outside the timed calls). The end-to-end
/// throughput and median are medians over the fast units of each block's
/// throughput and of its principal operation's median; the per-layer
/// percentiles are medians over all blocks.
struct ServingStats {
  ServingStats(HostProbe& probe, OpKind principal, size_t block_ops)
      : probe(probe), principal(principal), block_ops(block_ops) {
    block_share.Reserve(block_ops);
    block_query.Reserve(block_ops);
  }

  void Record(OpKind kind, double us, bool after_churn) {
    if (block_requests == 0) {
      probe.RepinEvery(1.0);
      block_probe_us = probe.Measure();
    }
    switch (kind) {
      case OpKind::kShare: block_share.Add(us); break;
      case OpKind::kQuery: block_query.Add(us); break;
      case OpKind::kFollow: follow_us.Add(us); break;
      case OpKind::kUnfollow: unfollow_us.Add(us); break;
    }
    if (after_churn && (kind == OpKind::kShare || kind == OpKind::kQuery)) {
      post_churn_us.Add(us);
    }
    block_busy_us += us;
    if (++block_requests == block_ops) CloseBlock();
  }

  HostProbe& probe;
  const OpKind principal;
  const size_t block_ops;
  Samples follow_us, unfollow_us, post_churn_us;
  Units block_rate, block_p50;
  Samples share_p50, share_p99, query_p50, query_p99;
  size_t shares = 0, queries = 0;

 private:
  void CloseBlock() {
    const double probe_us = std::max(block_probe_us, probe.Measure());
    block_rate.Add(static_cast<double>(block_requests) * 1e6 / block_busy_us, probe_us);
    block_p50.Add((principal == OpKind::kShare ? block_share : block_query).Median(), probe_us);
    share_p50.Add(block_share.Median());
    share_p99.Add(block_share.Quantile(0.99));
    query_p50.Add(block_query.Median());
    query_p99.Add(block_query.Quantile(0.99));
    shares += block_share.size();
    queries += block_query.size();
    block_share.Clear();
    block_query.Clear();
    block_busy_us = 0;
    block_requests = 0;
  }

  Samples block_share, block_query;
  double block_probe_us = 0;
  double block_busy_us = 0;
  size_t block_requests = 0;
};

template <typename Service>
class Client {
 public:
  Client(Run& run, Service& service, FollowSets& follows, ShareLog& log,
         std::vector<uint8_t>& changed, size_t view_capacity)
      : run_(run),
        svc_(&service),
        follows_(follows),
        log_(log),
        changed_(changed),
        view_capacity_(view_capacity) {}

  void Rebind(Service& service) { svc_ = &service; }

  /// Issues one operation; when `stats` is set its latency is recorded.
  void Execute(const Op& op, ServingStats* stats, uint64_t request) {
    Span outer(run_.tracer, "request", request);
    ++run_.attempted;
    const NodeId u = op.user;
    int64_t t0 = 0, t1 = 0;
    switch (op.kind) {
      case OpKind::kShare: {
        piggy::Status st;
        {
          Span span(run_.tracer, "store.share", request);
          t0 = NowNs();
          st = svc_->Share(u);
          t1 = NowNs();
        }
        if (!st.ok()) {
          run_.OpFailed("share", st);
          return;
        }
        log_.Record(u);
        break;
      }
      case OpKind::kQuery: {
        piggy::Result<std::vector<EventTuple>> feed = piggy::Status::OK();
        {
          Span span(run_.tracer, "store.query", request);
          t0 = NowNs();
          feed = svc_->QueryStream(u);
          t1 = NowNs();
        }
        if (!feed.ok()) {
          run_.OpFailed("query", feed.status());
          return;
        }
        Span span(run_.tracer, "check.feed", request);
        const std::string verdict = CheckFeed(u, *feed, follows_, log_, kFeedSize);
        if (!verdict.empty()) run_.Wrong(verdict);
        break;
      }
      case OpKind::kFollow:
      case OpKind::kUnfollow: {
        const bool follow = op.kind == OpKind::kFollow;
        piggy::Status st;
        {
          Span span(run_.tracer,
                    follow ? "core.incremental.follow" : "core.incremental.unfollow",
                    request);
          t0 = NowNs();
          st = follow ? svc_->Follow(u, op.producer) : svc_->Unfollow(u, op.producer);
          t1 = NowNs();
        }
        if (!st.ok()) {
          run_.OpFailed(follow ? "follow" : "unfollow", st);
          return;
        }
        if (follow) {
          follows_.Add(u, op.producer);
        } else {
          follows_.Remove(u, op.producer);
        }
        changed_[u] = 1;
        break;
      }
    }
    const bool churn = op.kind == OpKind::kFollow || op.kind == OpKind::kUnfollow;
    if (stats) stats->Record(op.kind, static_cast<double>(t1 - t0) / 1e3, after_churn_);
    after_churn_ = churn;
  }

  /// Runs `count` operations of the cycle `ops` from position *pos. Untimed
  /// runs (set-up) move to the fastest CPU now and then; timed ones do so
  /// between units.
  void Cycle(const std::vector<Op>& ops, size_t* pos, size_t count, ServingStats* stats) {
    for (size_t i = 0; i < count; ++i) {
      if (!stats && i % 4096 == 0) run_.probe.RepinEvery(0.5);
      if (*pos == ops.size()) *pos = 0;
      Execute(ops[(*pos)++], stats, ++request_);
    }
  }

  /// Runs the cycle `ops` from position *pos until `seconds` have passed.
  void Window(const std::vector<Op>& ops, size_t* pos, double seconds, ServingStats* stats) {
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds) Cycle(ops, pos, 64, stats);
  }

  /// Runs every operation of `ops` once.
  void Replay(const std::vector<Op>& ops, ServingStats* stats) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!stats && i % 4096 == 0) run_.probe.RepinEvery(0.5);
      Execute(ops[i], stats, ++request_);
    }
  }

  /// Delivery probe, strict where the sweep below cannot be: for every user,
  /// one of its followees (or the user itself) shares, and the user's next
  /// feed must start with that share. A newest event is never trimmed, so a
  /// miss here is a lost write, not the known trimming fault.
  void NewestProbe(Rng& rng) {
    Span span(run_.tracer, "check.newest");
    for (NodeId u = 0; u < follows_.num_users(); ++u) {
      const auto& f = follows_.Followees(u);
      const NodeId p = f.empty() ? u : f[rng.Below(f.size())];
      ++run_.attempted;
      if (auto st = svc_->Share(p); !st.ok()) {
        run_.OpFailed("probe share", st);
        continue;
      }
      const uint64_t seq = log_.Record(p);
      ++run_.attempted;
      auto feed = svc_->QueryStream(u);
      if (!feed.ok()) {
        run_.OpFailed("probe query", feed.status());
        continue;
      }
      const std::string verdict = CheckFeed(u, *feed, follows_, log_, kFeedSize);
      if (!verdict.empty()) run_.Wrong(verdict);
      if (feed->empty() || feed->front().event_id != seq) {
        run_.Wrong("feed of user " + std::to_string(u) + " lacks the newest share " +
                   std::to_string(seq) + " of producer " + std::to_string(p));
      }
    }
  }

  /// Queries every user once. Every feed gets the per-query checks; users
  /// whose follow set never changed also get the completeness check, which
  /// fails the run unless every share missing from the feed could have been
  /// trimmed from a full view (the known trimming fault, counted in
  /// *trimmed).
  std::vector<std::vector<EventTuple>> Sweep(uint64_t* trimmed) {
    std::vector<std::vector<EventTuple>> feeds(follows_.num_users());
    for (NodeId u = 0; u < follows_.num_users(); ++u) {
      ++run_.attempted;
      auto feed = svc_->QueryStream(u);
      if (!feed.ok()) {
        run_.OpFailed("sweep query", feed.status());
        continue;
      }
      const std::string verdict = CheckFeed(u, *feed, follows_, log_, kFeedSize);
      if (!verdict.empty()) run_.Wrong(verdict);
      std::string why;
      if (!changed_[u]) {
        switch (CheckComplete(u, *feed, follows_, log_, kFeedSize, view_capacity_, &why)) {
          case Completeness::kComplete: break;
          case Completeness::kTrimmed: ++*trimmed; break;
          case Completeness::kWrong: run_.Wrong(why); break;
        }
      }
      feeds[u] = std::move(feed).MoveValueOrDie();
    }
    return feeds;
  }

 private:
  Run& run_;
  Service* svc_;
  FollowSets& follows_;
  ShareLog& log_;
  std::vector<uint8_t>& changed_;
  const size_t view_capacity_;
  bool after_churn_ = false;
  uint64_t request_ = 0;
};

/// Negative checks on real sweep feeds: one event dropped from a complete
/// feed (through the sweep's own completeness check, at the first position
/// where no full view could excuse the loss), one foreign producer added.
/// Both must be caught.
void FeedNegativeChecks(Run& run, const std::vector<std::vector<EventTuple>>& feeds,
                        const FollowSets& follows, const ShareLog& log,
                        const std::vector<uint8_t>& changed, size_t view_capacity) {
  std::string why;
  auto complete = [&](NodeId u, const std::vector<EventTuple>& feed) {
    return CheckComplete(u, feed, follows, log, kFeedSize, view_capacity, &why);
  };
  NodeId user = 0;
  bool found = false;
  std::string dropped_verdict;
  for (NodeId u = 0; u < feeds.size() && dropped_verdict.empty(); ++u) {
    if (changed[u] || feeds[u].size() != kFeedSize ||
        complete(u, feeds[u]) != Completeness::kComplete) {
      continue;
    }
    if (!found) user = u;
    found = true;
    for (size_t i = 0; i < kFeedSize && dropped_verdict.empty(); ++i) {
      std::vector<EventTuple> dropped = feeds[u];
      dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(i));
      if (complete(u, dropped) == Completeness::kWrong) dropped_verdict = why;
    }
  }
  if (!found) {
    run.Wrong("no complete feed to run the negative checks on");
    return;
  }
  run.MustCatch("feed with one event dropped", dropped_verdict);

  // A real share by a producer the user does not follow, placed in order.
  std::vector<EventTuple> foreign = feeds[user];
  for (uint64_t seq = log.size(); seq >= 1; --seq) {
    const NodeId p = log.ProducerOf(seq);
    if (p != user && !follows.Follows(user, p)) {
      foreign.insert(foreign.begin(), EventTuple{p, seq, seq});
      foreign.pop_back();
      break;
    }
  }
  run.MustCatch("feed with a foreign producer added",
                CheckFeed(user, foreign, follows, log, kFeedSize));
}

void ServingMetrics(Run& run, ServingStats& s) {
  run.Set("ops_per_s", s.block_rate.FastMedian(run.probe));
  run.Set("p50_us", s.block_p50.FastMedian(run.probe));
  run.Set("bench.units", static_cast<double>(s.block_rate.size()));
  run.Set("bench.fast_units", static_cast<double>(s.block_rate.FastCount(run.probe)));
  std::fprintf(stderr, "units: %zu of %zu requests, %zu at the best host speed\n",
               s.block_rate.size(), s.block_ops, s.block_rate.FastCount(run.probe));
  run.Set("store.share_p50_us", s.share_p50.Median());
  run.Set("store.share_p99_us", s.share_p99.Median());
  run.Set("store.share_samples", static_cast<double>(s.shares));
  run.Set("store.query_p50_us", s.query_p50.Median());
  run.Set("store.query_p99_us", s.query_p99.Median());
  run.Set("store.query_samples", static_cast<double>(s.queries));
  if (run.tracer.on()) {
    run.Set("store.share_self_us", run.tracer.SelfTimes("store.share").Median());
    run.Set("store.query_self_us", run.tracer.SelfTimes("store.query").Median());
  }
}

/// Mean of the named histogram over the given registries.
double HistogramMean(const std::vector<piggy::obs::MetricsRegistry*>& registries,
                     const char* name, uint64_t* count = nullptr) {
  double sum = 0;
  uint64_t n = 0;
  for (auto* r : registries) {
    auto& h = r->GetHistogram(name);
    sum += h.Sum();
    n += h.Count();
  }
  if (count) *count = n;
  return n ? sum / static_cast<double>(n) : 0;
}

// ---------------------------------------------------------------------------
// read-mostly: memory-only FeedService, default serving options, 5:1 rates.
// ---------------------------------------------------------------------------
void ReadMostlyWorkload(Run& run) {
  Rng rng(run.args.seed);
  const piggy::Graph g = MakeGraph(run, kReadNodes, rng.Next());
  const piggy::Workload rates = MakeRates(g, kReadRatio);
  run.probe.Repin();
  FollowSets follows(g);
  std::vector<uint8_t> changed(g.num_nodes(), 0);
  const std::vector<Op> ops = DrawOps(rates, kReadCycle, 0, nullptr, rng);
  // Room for every share the run can make, the newest-share probe's included.
  const double shares_per_request =
      static_cast<double>(std::count_if(ops.begin(), ops.end(),
                                        [](const Op& op) { return op.kind == OpKind::kShare; })) /
      static_cast<double>(ops.size());
  ShareLog log(g.num_nodes(),
               static_cast<size_t>(1.2 * shares_per_request *
                                   (kReadWarmup + kMaxRequestRate * run.args.seconds)) +
                   g.num_nodes());
  ServingStats stats(run.probe, OpKind::kQuery, kReadBlock);
  run.probe.Repin();

  ProgressLog progress;
  piggy::FeedServiceOptions options;
  options.planner = "nosy";
  options.plan_context.num_threads = kPlanThreads;
  if (run.tracer.on()) options.plan_context.progress = progress.Hook();
  const double rss_base_mb = ResidentMb("VmRSS:");
  ++run.attempted;
  progress.start = Clock::now();
  auto created = [&] {
    Span span(run.tracer, "feed.create");
    return piggy::FeedService::Create(g, rates, options);
  }();
  if (!created.ok()) {
    run.OpFailed("create", created.status());
    return;
  }
  std::unique_ptr<piggy::FeedService> service = std::move(created).MoveValueOrDie();
  run.probe.Repin();

  Client<piggy::FeedService> client(run, *service, follows, log, changed,
                                    options.prototype.view_capacity);
  size_t pos = 0;
  {
    Span span(run.tracer, "warmup");
    client.Cycle(ops, &pos, kReadWarmup, nullptr);
  }
  run.Set("setup_s", SecondsSince(kProcessStart));

  client.Window(ops, &pos, run.args.seconds, &stats);
  run.Set("peak_rss_mb", ResidentMb("VmHWM:") - rss_base_mb);

  uint64_t trimmed = 0;
  client.NewestProbe(rng);
  const auto feeds = client.Sweep(&trimmed);
  FeedNegativeChecks(run, feeds, follows, log, changed, options.prototype.view_capacity);
  ++run.attempted;
  if (auto st = service->Validate(); !st.ok()) run.Wrong("Validate: " + st.ToString());

  const auto m = service->GetMetrics();
  ServingMetrics(run, stats);
  run.Set("messages_per_request", m.messages_per_request);
  run.Set("core.schedule_cost", m.schedule_cost);
  run.Set("core.nosy.iterations", static_cast<double>(progress.at_s.size()));
  if (!progress.at_s.empty()) {
    const size_t n = progress.at_s.size();
    run.Set("core.nosy.iteration_first_s", progress.at_s.front());
    run.Set("core.nosy.iteration_last_s",
            n > 1 ? progress.at_s[n - 1] - progress.at_s[n - 2] : progress.at_s[0]);
  }
  run.Set("feed.replan_us", HistogramMean({&service->registry()}, "feed.replan_us"));
  run.Set("store.interest_bytes_per_edge", m.interest_bytes_per_edge);
  run.Set("store.serving_rebuilds", static_cast<double>(m.serving_rebuilds));
  run.Set("check.sweep_queries", static_cast<double>(g.num_nodes()));
  run.Set("check.sweep_trimmed", static_cast<double>(trimmed));
  std::fprintf(stderr, "sweep: %llu of %zu feeds lack shares that full views may have trimmed\n",
               static_cast<unsigned long long>(trimmed), g.num_nodes());
}

// ---------------------------------------------------------------------------
// write-churn: durable 4-shard edge-cut cluster, 1:1 rates, Follow/Unfollow
// mixed in. Every Follow/Unfollow makes the next request to its shard replay
// every share made so far, so the cost of a request grows while the cluster
// runs. To time the same work in every repetition, the window is a series of
// episodes: each recovers a fresh copy of one closed checkpoint and replays
// the same request sequence from it.
// ---------------------------------------------------------------------------

/// Reference state the episodes rewind to.
struct Reference {
  FollowSets follows;
  ShareLog log;
  std::vector<uint8_t> changed;
};

std::unique_ptr<piggy::ClusterService> RecoverCopy(Run& run, const fs::path& from,
                                                   const fs::path& to,
                                                   piggy::ClusterOptions options,
                                                   Samples* recover_s,
                                                   piggy::RecoveryStats* stats) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive);
  options.durability.data_dir = to.string();
  ++run.attempted;
  const auto t0 = Clock::now();
  auto recovered = [&] {
    Span span(run.tracer, "durability.recover");
    return piggy::ClusterService::Recover(options, stats);
  }();
  recover_s->Add(SecondsSince(t0));
  if (!recovered.ok()) {
    run.OpFailed("recover", recovered.status());
    return nullptr;
  }
  return std::move(recovered).MoveValueOrDie();
}

/// After Recover: every user's feed must equal its feed before close and pass
/// the per-query checks. With `negative`, also shows that a recovered feed
/// missing its newest event is caught.
void CheckRecovered(Run& run, piggy::ClusterService& cluster, const Reference& ref,
                    const std::vector<std::vector<EventTuple>>& before_close,
                    bool negative) {
  Span span(run.tracer, "check.recovered");
  for (NodeId u = 0; u < before_close.size(); ++u) {
    ++run.attempted;
    auto feed = cluster.QueryStream(u);
    if (!feed.ok()) {
      run.OpFailed("recovered query", feed.status());
      continue;
    }
    const std::string verdict = CheckFeed(u, *feed, ref.follows, ref.log, kFeedSize);
    if (!verdict.empty()) run.Wrong("after recovery: " + verdict);
    if (*feed != before_close[u]) {
      run.Wrong("after recovery the feed of user " + std::to_string(u) +
                " differs from its feed before close");
    }
    if (negative && !feed->empty()) {
      std::vector<EventTuple> missing = *feed;
      missing.erase(missing.begin());
      run.MustCatch("recovered feed missing its newest event",
                    missing != before_close[u] ? "differs from the feed before close"
                                               : std::string());
      negative = false;
    }
  }
  ++run.attempted;
  if (auto st = cluster.Validate(); !st.ok()) run.Wrong("recovered Validate: " + st.ToString());
}

void WriteChurnWorkload(Run& run) {
  Rng rng(run.args.seed);
  const piggy::Graph g = MakeGraph(run, kChurnNodes, rng.Next());
  const piggy::Workload rates = MakeRates(g, 1.0);
  run.probe.Repin();
  std::vector<Op> warmup, episode;
  {
    FollowSets sim(g);
    warmup = DrawOps(rates, kChurnWarmup, kChurnEvery, &sim, rng);
    episode = DrawOps(rates, kEpisodeOps, kChurnEvery, &sim, rng);
  }
  auto is_share = [](const Op& op) { return op.kind == OpKind::kShare; };
  const size_t max_shares =
      static_cast<size_t>(std::count_if(warmup.begin(), warmup.end(), is_share) +
                          std::count_if(episode.begin(), episode.end(), is_share)) +
      g.num_nodes();
  Reference ref{FollowSets(g), ShareLog(g.num_nodes(), max_shares),
                std::vector<uint8_t>(g.num_nodes(), 0)};
  ServingStats stats(run.probe, OpKind::kShare, kEpisodeOps);
  run.probe.Repin();

  const fs::path root = run.args.out / ("write-churn-" + std::to_string(::getpid()));
  const fs::path live_dir = root / "live";
  const fs::path checkpoint_dir = root / "checkpoint";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);

  piggy::ClusterOptions options;
  options.num_shards = kChurnShards;
  options.partitioner = "edge-cut";
  options.shard.planner = "nosy";
  options.shard.plan_context.num_threads = 1;
  options.durability.data_dir = live_dir.string();
  options.durability.flush = piggy::WalFlushPolicy::kGroup;
  options.durability.group_records = 64;
  options.durability.use_fsync = false;
  options.durability.snapshot_every = kSnapshotEvery;

  const double rss_base_mb = ResidentMb("VmRSS:");
  ++run.attempted;
  auto created = [&] {
    Span span(run.tracer, "cluster.create");
    return piggy::ClusterService::Create(g, rates, options);
  }();
  if (!created.ok()) {
    run.OpFailed("create", created.status());
    fs::remove_all(root, ec);
    return;
  }
  std::unique_ptr<piggy::ClusterService> cluster = std::move(created).MoveValueOrDie();
  run.probe.Repin();

  // Warm-up, then close: the closed data directory is the checkpoint.
  const size_t view_capacity = options.shard.prototype.view_capacity;
  Client<piggy::ClusterService> client(run, *cluster, ref.follows, ref.log, ref.changed,
                                       view_capacity);
  {
    Span span(run.tracer, "warmup");
    client.Replay(warmup, nullptr);
  }
  uint64_t checkpoint_trimmed = 0;
  const auto checkpoint_feeds = client.Sweep(&checkpoint_trimmed);
  double replan_us = 0;
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    replan_us = std::max(replan_us, HistogramMean({&cluster->shard(s).registry()},
                                                  "feed.replan_us"));
  }
  {
    Span span(run.tracer, "cluster.close");
    cluster.reset();
  }
  fs::rename(live_dir, checkpoint_dir);
  const Reference checkpoint = ref;
  run.Set("setup_s", SecondsSince(kProcessStart));

  // The timed window: whole episodes until --seconds have passed.
  Samples recover_s;
  piggy::RecoveryStats recovery;
  const auto window = Clock::now();
  for (size_t e = 0; SecondsSince(window) < run.args.seconds; ++e) {
    cluster.reset();
    cluster = RecoverCopy(run, checkpoint_dir, live_dir, options, &recover_s, &recovery);
    if (!cluster) break;
    ref = checkpoint;
    CheckRecovered(run, *cluster, ref, checkpoint_feeds, /*negative=*/e == 0);
    client.Rebind(*cluster);
    Span span(run.tracer, "episode");
    client.Replay(episode, &stats);
  }
  if (!cluster) {
    fs::remove_all(root, ec);
    return;
  }
  run.Set("peak_rss_mb", ResidentMb("VmHWM:") - rss_base_mb);

  client.NewestProbe(rng);
  uint64_t trimmed = 0;
  const auto before_close = client.Sweep(&trimmed);
  FeedNegativeChecks(run, before_close, ref.follows, ref.log, ref.changed, view_capacity);
  ++run.attempted;
  if (auto st = cluster->Validate(); !st.ok()) run.Wrong("Validate: " + st.ToString());

  const piggy::ClusterMetrics m = cluster->GetMetrics();
  std::vector<piggy::obs::MetricsRegistry*> registries{&cluster->registry()};
  size_t rebuilds = 0;
  for (size_t s = 0; s < cluster->num_shards(); ++s) {
    registries.push_back(&cluster->shard(s).registry());
    rebuilds += cluster->shard(s).GetMetrics().serving_rebuilds;
  }
  uint64_t snapshots = 0;
  run.Set("durability.wal_append_us", HistogramMean(registries, "wal.append_us"));
  run.Set("durability.wal_flush_us", HistogramMean(registries, "wal.flush_us"));
  run.Set("durability.snapshot_write_us",
          HistogramMean(registries, "snapshot.write_us", &snapshots));
  run.Set("durability.snapshots", static_cast<double>(snapshots));

  // Close once more and recover the end state.
  {
    Span span(run.tracer, "cluster.close");
    cluster.reset();
  }
  run.Set("durability.disk_bytes", static_cast<double>(DirBytes(live_dir)));
  piggy::RecoveryStats final_recovery;
  auto recovered =
      RecoverCopy(run, live_dir, root / "final", options, &recover_s, &final_recovery);
  if (recovered) CheckRecovered(run, *recovered, ref, before_close, /*negative=*/false);
  recovered.reset();
  fs::remove_all(root, ec);

  const uint64_t requests = m.shares + m.queries;
  ServingMetrics(run, stats);
  run.Set("messages_per_request", m.messages_per_request);
  run.Set("core.schedule_cost", m.total_cost);
  run.Set("feed.replan_us", replan_us);
  run.Set("store.interest_bytes_per_edge", m.interest_bytes_per_edge);
  run.Set("store.serving_rebuilds", static_cast<double>(rebuilds));
  run.Set("store.post_churn_op_us", stats.post_churn_us.Sum() /
                                        std::max<size_t>(1, stats.post_churn_us.size()));
  run.Set("core.incremental.follow_us", stats.follow_us.Median());
  run.Set("core.incremental.unfollow_us", stats.unfollow_us.Median());
  run.Set("core.incremental.repairs", static_cast<double>(m.repairs));
  run.Set("cluster.cross_messages_per_request",
          requests ? static_cast<double>(m.cross_update_messages + m.cross_query_messages) /
                         static_cast<double>(requests)
                   : 0);
  run.Set("cluster.replicas", static_cast<double>(m.replicas));
  run.Set("cluster.imbalance", m.imbalance);
  run.Set("durability.recover_s", recover_s.Median());
  run.Set("durability.recover_wal_records", static_cast<double>(recovery.wal_records));
  run.Set("durability.recover_snapshot_events",
          static_cast<double>(recovery.snapshot_events));
  run.Set("durability.recover_wal_bytes", static_cast<double>(recovery.wal_valid_bytes));
  run.Set("check.sweep_queries", static_cast<double>(g.num_nodes()));
  run.Set("check.sweep_trimmed", static_cast<double>(trimmed));
  std::fprintf(stderr,
               "sweep: %llu of %zu feeds lack shares that full views may have trimmed "
               "(%llu at the checkpoint)\n",
               static_cast<unsigned long long>(trimmed), g.num_nodes(),
               static_cast<unsigned long long>(checkpoint_trimmed));
}

// ---------------------------------------------------------------------------
// Command line and output
// ---------------------------------------------------------------------------
[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "feedbench: %s\nusage: feedbench --workload plan|read-mostly|write-churn "
               "--seed N --seconds S --trace 0|1 --out DIR\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have[5] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value != "plan" && value != "read-mostly" && value != "write-churn") {
        Usage("unknown workload '" + value + "'");
      }
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') Usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("bad --seconds " + value);
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--out") {
      args.out = value;
      have[4] = true;
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  for (bool h : have) {
    if (!h) Usage("every flag is required");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  fs::create_directories(args.out, ec);
  if (ec) Usage("cannot create " + args.out.string() + ": " + ec.message());

  Run run(args);
  // Serving runs one client thread; the planners run kPlanThreads.
  run.probe.Pin(args.workload == "plan" ? kPlanThreads : 1);
  const auto start = Clock::now();
  if (args.workload == "plan") {
    PlanWorkload(run);
  } else if (args.workload == "read-mostly") {
    ReadMostlyWorkload(run);
  } else {
    WriteChurnWorkload(run);
  }
  run.Set("trace.spans", static_cast<double>(run.tracer.spans()));
  if (run.attempted == 0) run.attempted = 1;

  const unsigned nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  const char* tier = piggy::simd::TierName(piggy::simd::ActiveTier());
  std::printf("# host nproc=%u simd=%s plan_threads=%zu cpus=%s workload=%s seed=%llu "
              "seconds=%g trace=%d run_s=%.3f\n",
              nproc, tier, kPlanThreads, run.probe.Describe().c_str(),
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, SecondsSince(start));

  // End-to-end numbers of a traced run go to stderr and into the trace file,
  // so the tracing overhead can be read off against an untraced run.
  std::string e2e_json;
  for (const auto& spec : kEndToEnd) {
    if (!run.Has(spec.name)) run.Wrong(std::string("metric not measured: ") + spec.name);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", e2e_json.empty() ? "" : ",",
                  spec.name, run.Get(spec.name));
    e2e_json += buf;
  }
  if (args.trace) {
    std::fprintf(stderr, "traced end-to-end: {%s}\n", e2e_json.c_str());
    const fs::path path =
        args.out / ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
    if (!run.tracer.Write(path, ",\"endToEnd\":{" + e2e_json + "}")) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s\n", path.c_str());
  }

  std::string metrics;
  auto emit = [&](const MetricSpec& spec) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, run.Get(spec.name), spec.unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace feedbench

int main(int argc, char** argv) { return feedbench::Main(argc, argv); }
