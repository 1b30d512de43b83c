#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "spans.h"
#include "src/audit/audit.h"
#include "src/core/layout_io.h"
#include "src/core/objective.h"
#include "src/core/pipeline.h"
#include "src/core/sa_solver.h"
#include "src/core/scalable.h"
#include "src/obs/event_log.h"
#include "src/obs/json_lite.h"
#include "src/obs/profile.h"
#include "src/obs/report.h"
#include "src/obs/timeseries.h"
#include "src/sim/prefix_cache_policy.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/run_report.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodbench {

using namespace vodrep;

namespace {

// vodrep_plan's defaults for the cluster and the videos.
constexpr double kTheta = 0.75;
constexpr double kBandwidthGbps = 1.8;
constexpr double kBitrateMbps = 4.0;
constexpr double kDurationMin = 90.0;
constexpr std::size_t kEventLogCap = 10000;

std::vector<double> make_popularity(std::size_t videos) {
  ScopedSpan span("workload.popularity");
  return zipf_popularity(videos, kTheta);
}

SimConfig make_sim_config(std::size_t servers) {
  SimConfig config;
  config.num_servers = servers;
  config.bandwidth_bps_per_server = units::gbps(kBandwidthGbps);
  config.stream_bitrate_bps = units::mbps(kBitrateMbps);
  config.video_duration_sec = units::minutes(kDurationMin);
  return config;
}

/// Arrival rate that offers `load` times the cluster's stream capacity over
/// one peak: concurrency lambda * T = load * N * B / b.
double arrival_rate(const SimConfig& config, double load) {
  return load * static_cast<double>(config.num_servers) *
         (config.bandwidth_bps_per_server / config.stream_bitrate_bps) /
         config.video_duration_sec;
}

struct Planned {
  ReplicationPlan plan;
  Layout layout;
  std::size_t capacity = 0;
};

/// vodrep_plan's heuristic pipeline: budget = degree * M replicas, capacity
/// ceil(budget / N) slots per server, then replicate and place.
Planned plan_layout(const std::vector<double>& popularity, std::size_t servers,
                    double degree) {
  const auto replication = make_replication_policy("adams");
  const auto placement = make_placement_policy("slf");
  const auto budget = static_cast<std::size_t>(
      degree * static_cast<double>(popularity.size()));
  Planned out;
  out.capacity = (budget + servers - 1) / servers;
  {
    ScopedSpan span("core.replicate");
    out.plan = replication->replicate(popularity, servers, budget);
  }
  {
    ScopedSpan span("core.place");
    out.layout =
        placement->place(out.plan, popularity, servers, out.capacity);
  }
  return out;
}

/// Eq. 1 of a fixed-rate layout: every video at the common bit rate, the
/// layout's replica counts, and its expected per-server loads.
double fixed_rate_objective(const Planned& planned,
                            const std::vector<double>& popularity,
                            std::size_t servers) {
  const std::vector<double> bitrates(popularity.size(),
                                     units::mbps(kBitrateMbps));
  return objective_value(bitrates, planned.plan.replicas,
                         planned.layout.expected_loads(popularity, servers),
                         servers, ObjectiveWeights{});
}

/// FNV-1a over a stream of 64-bit words: a cheap fingerprint to compare
/// every iteration's output with the first one's.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const Layout& layout) {
  Fingerprint f;
  for (const auto& hosts : layout.assignment) {
    f.add(static_cast<std::uint64_t>(hosts.size()));
    for (std::size_t s : hosts) f.add(static_cast<std::uint64_t>(s));
  }
  return f.value();
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Problems with a SimResult's own bookkeeping: the rejection breakdown
/// sums to the rejections, and a live cache tier saw every request.
void check_sim_result(const SimResult& result, bool cache, const char* what,
                      std::vector<std::string>& problems) {
  std::size_t by_reason = 0;
  for (std::size_t n : result.rejected_by_reason) by_reason += n;
  if (by_reason != result.rejected) {
    problems.push_back(std::string(what) + ": rejected_by_reason sums to " +
                       std::to_string(by_reason) + ", rejected is " +
                       std::to_string(result.rejected));
  }
  if (cache && result.cache_hits + result.cache_misses != result.total_requests) {
    problems.push_back(std::string(what) +
                       ": cache hits + misses != requests");
  }
}

/// True when two replays of one trace agree on every counter (exactly) and
/// on the Eq. 2 time average (within the sharded merge's float tolerance).
bool same_counters(const SimResult& a, const SimResult& b) {
  const double tolerance =
      1e-7 * std::max(1.0, std::abs(a.mean_imbalance_eq2));
  return a.total_requests == b.total_requests && a.rejected == b.rejected &&
         a.rejected_by_reason == b.rejected_by_reason &&
         a.redirected == b.redirected && a.proxied == b.proxied &&
         a.batched == b.batched && a.disrupted == b.disrupted &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.cache_evictions == b.cache_evictions &&
         a.served_per_server == b.served_per_server &&
         std::abs(a.mean_imbalance_eq2 - b.mean_imbalance_eq2) <= tolerance;
}

const obs::PhaseStats* find_phase(const std::vector<obs::PhaseStats>& forest,
                                  std::initializer_list<std::string_view> path) {
  const std::vector<obs::PhaseStats>* level = &forest;
  const obs::PhaseStats* node = nullptr;
  for (std::string_view name : path) {
    node = nullptr;
    for (const obs::PhaseStats& candidate : *level) {
      if (candidate.name == name) node = &candidate;
    }
    if (node == nullptr) return nullptr;
    level = &node->children;
  }
  return node;
}

/// Total wall seconds of a profiler phase over all its entries (0 when
/// absent).
double phase_wall_s(const obs::PhaseStats* phase) {
  return phase == nullptr ? 0.0 : static_cast<double>(phase->wall_ns) * 1e-9;
}

/// Total thread-CPU (or wall) seconds of every phase named `name`, summed
/// over the threads and places it ran in.
double total_phase_s(const std::vector<obs::PhaseStats>& forest,
                     std::string_view name, bool cpu) {
  double total = 0.0;
  for (const obs::PhaseStats& phase : forest) {
    if (phase.name == name) {
      total += static_cast<double>(cpu ? phase.cpu_ns : phase.wall_ns) * 1e-9;
    }
    total += total_phase_s(phase.children, name, cpu);
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// plan_library: replicate + place + save + load at library scale.

class PlanLibrary final : public Workload {
 public:
  explicit PlanLibrary(const WorkloadConfig& config)
      : videos_(config.tiny ? 2000 : 1'000'000),
        servers_(config.tiny ? 16 : 1024),
        path_(config.work_dir + "/plan_library.layout") {}

  void setup() override { popularity_ = make_popularity(videos_); }

  void iterate(bool) override {
    // Free the last iteration's outputs first, so every iteration starts
    // from the same live memory.
    planned_ = Planned{};
    loaded_ = PlacementFile{};
    planned_ = plan_layout(popularity_, servers_, kDegree);
    {
      ScopedSpan span("core.layout_save");
      PlacementFile file;
      file.num_servers = servers_;
      file.layout = planned_.layout;
      std::ofstream out(path_);
      save_placement(out, file);
      out.flush();
      require(out.good(), [&] { return "cannot write " + path_; });
    }
    {
      ScopedSpan span("core.layout_load");
      std::ifstream in(path_);
      loaded_ = load_placement(in);
    }
  }

  std::vector<std::string> check(bool first) override {
    std::vector<std::string> problems;
    if (loaded_.num_servers != servers_ ||
        loaded_.layout.assignment != planned_.layout.assignment) {
      problems.emplace_back("reloaded layout differs from the written one");
    }
    const std::uint64_t print = fingerprint(planned_.layout);
    if (first) {
      first_print_ = print;
      for (const Layout* layout : {&planned_.layout, &loaded_.layout}) {
        const AuditReport report =
            audit_layout(*layout, planned_.plan, popularity_, servers_,
                         planned_.capacity);
        audit_checks_ += report.checks_performed;
        if (!report.ok()) problems.push_back("audit: " + report.summary());
      }
    } else if (print != first_print_) {
      problems.emplace_back("layout differs from the first iteration's");
    }
    return problems;
  }

  void quality(MetricMap& values) const override {
    const std::vector<double> loads =
        planned_.layout.expected_loads(popularity_, servers_);
    values["imbalance_eq2"] = {imbalance_max_relative(loads), "fraction"};
    values["imbalance_eq3"] = {imbalance_cv(loads), "fraction"};
    values["objective_eq1"] = {
        fixed_rate_objective(planned_, popularity_, servers_), "score"};
  }

  std::vector<std::string> layer_metrics(MetricMap& metrics,
                                         MetricMap&) override {
    metrics["core.replicas"].value =
        static_cast<double>(planned_.plan.total_replicas());
    metrics["core.layout_bytes"].value = static_cast<double>(file_size(path_));
    metrics["audit.checks"].value = static_cast<double>(audit_checks_);
    return {};
  }

 private:
  static constexpr double kDegree = 1.2;
  std::size_t videos_;
  std::size_t servers_;
  std::string path_;
  std::vector<double> popularity_;
  Planned planned_;
  PlacementFile loaded_;
  std::uint64_t first_print_ = 0;
  std::size_t audit_checks_ = 0;
};

// Peaks replayed per sim_peak iteration.
constexpr std::size_t kSimPeaks = 6;

// ---------------------------------------------------------------------------
// sim_peak / sim_edge_cache: K independent peaks replayed on the default
// (monolithic, timeline + event log) simulator path, then one run report
// built, written and validated.

struct SimSizes {
  std::size_t videos = 0;
  std::size_t servers = 0;
  double degree = 0.0;
  double load = 0.0;  ///< offered load, multiple of stream capacity
  std::size_t peaks = 0;
  double cache_gb = 0.0;  ///< 0: no edge cache tier
};

class SimWorkload final : public Workload {
 public:
  SimWorkload(const WorkloadConfig& config, SimSizes sizes)
      : sizes_(sizes),
        seed_(config.seed),
        threads_(config.threads),
        config_(make_sim_config(sizes.servers)),
        path_(config.work_dir + "/" + config.name + ".report.json") {
    cache_.eviction = CacheEvictionPolicy::kLru;
    cache_.capacity_bytes = units::gigabytes(sizes.cache_gb);
    cache_.uniform_prefix_fraction = kPrefixFraction;
  }

  void setup() override {
    popularity_ = make_popularity(sizes_.videos);
    planned_ = plan_layout(popularity_, sizes_.servers, sizes_.degree);
    TraceSpec spec;
    spec.arrival_rate = arrival_rate(config_, sizes_.load);
    spec.horizon = config_.video_duration_sec;
    spec.popularity = popularity_;
    Rng rng(seed_);
    for (std::size_t k = 0; k < sizes_.peaks; ++k) {
      ScopedSpan span("workload.generate_trace");
      traces_.push_back(generate_trace(rng, spec));
    }
  }

  void iterate(bool) override {
    const double horizon = config_.video_duration_sec;
    obs::TimeseriesCollector timeline(timeline_config(), sizes_.servers);
    obs::EventLog event_log(kEventLogCap);
    results_.clear();
    for (std::size_t k = 0; k < traces_.size(); ++k) {
      const double offset = static_cast<double>(k) * horizon;
      timeline.set_time_offset(offset);
      event_log.set_time_offset(offset);
      ScopedSpan span("sim.run");
      results_.push_back(
          replay(traces_[k], cache_, {}, &timeline, &event_log));
    }
    obs::JsonValue report;
    {
      ScopedSpan span("obs.report_build");
      aggregate_ = aggregate_results(results_);
      obs::JsonValue extra = obs::JsonValue::object();
      extra.set("num_videos", obs::JsonValue::integer_u64(sizes_.videos));
      extra.set("sim_seed", obs::JsonValue::integer_u64(seed_));
      extra.set("sim_horizon_sec", obs::JsonValue::number(horizon));
      extra.set("peaks", obs::JsonValue::integer_u64(traces_.size()));
      extra.set("prefix_cache", obs::JsonValue::boolean(has_cache()));
      report = build_run_report(config_, aggregate_, &timeline, &event_log,
                                std::move(extra));
    }
    {
      ScopedSpan span("obs.report_write");
      std::ofstream out(path_);
      report.write(out);
      out << "\n";
      out.flush();
      require(out.good(), [&] { return "cannot write " + path_; });
    }
    {
      ScopedSpan span("obs.report_validate");
      const std::string text = read_file(path_);
      report_bytes_ = text.size();
      report_problems_ = obs::validate_run_report(obs::parse_json(text));
    }
    timeline_samples_ = timeline.size();
    event_log_dropped_ = event_log.dropped();
  }

  std::vector<std::string> check(bool first) override {
    std::vector<std::string> problems;
    for (const std::string& problem : report_problems_) {
      problems.push_back("validate_run_report: " + problem);
    }
    std::size_t offered = 0;
    Fingerprint print;
    for (std::size_t k = 0; k < results_.size(); ++k) {
      check_sim_result(results_[k], has_cache(), "peak", problems);
      if (results_[k].total_requests != traces_[k].size()) {
        problems.emplace_back("a peak replayed fewer requests than offered");
      }
      offered += traces_[k].size();
      print.add(static_cast<std::uint64_t>(results_[k].rejected));
      print.add(results_[k].mean_imbalance_eq2);
      print.add(results_[k].cache_hits);
    }
    check_sim_result(aggregate_, has_cache(), "aggregate", problems);
    if (aggregate_.total_requests != offered) {
      problems.emplace_back("aggregate request count != offered requests");
    }
    if (first) {
      first_print_ = print.value();
      const AuditReport report =
          audit_layout(planned_.layout, planned_.plan, popularity_,
                       sizes_.servers, planned_.capacity);
      audit_checks_ += report.checks_performed;
      if (!report.ok()) problems.push_back("audit: " + report.summary());
    } else if (print.value() != first_print_) {
      problems.emplace_back("replay results differ from the first iteration's");
    }
    return problems;
  }

  void quality(MetricMap& values) const override {
    values["imbalance_eq2"] = {aggregate_.mean_imbalance_eq2, "fraction"};
    values["imbalance_eq3"] = {aggregate_.mean_imbalance_cv, "fraction"};
    values["objective_eq1"] = {
        fixed_rate_objective(planned_, popularity_, sizes_.servers), "score"};
    values["reject_rate"] = {aggregate_.rejection_rate(), "fraction"};
    if (has_cache()) {
      values["cache_hit_ratio"] = {aggregate_.cache_hit_ratio(), "fraction"};
    }
  }

  std::vector<std::string> layer_metrics(MetricMap& metrics,
                                         MetricMap& notes) override {
    std::vector<std::string> problems;
    std::size_t requests = 0;
    for (const RequestTrace& trace : traces_) requests += trace.size();
    metrics["workload.requests"].value = static_cast<double>(requests);
    metrics["core.replicas"].value =
        static_cast<double>(planned_.plan.total_replicas());
    metrics["audit.checks"].value = static_cast<double>(audit_checks_);
    const double run_s = recorder().median_run_seconds("sim.run", RunKind::kTimed);
    metrics["sim.requests_per_s"].value =
        ratio(static_cast<double>(requests), run_s);
    metrics["obs.report_bytes"].value = static_cast<double>(report_bytes_);
    metrics["obs.timeline_samples"].value =
        static_cast<double>(timeline_samples_);
    metrics["obs.event_log_dropped"].value =
        static_cast<double>(event_log_dropped_);

    recorder().begin_run(RunKind::kProbe);
    metrics["sim.heap_high_water"].value =
        static_cast<double>(heap_high_water());
    if (has_cache()) {
      metrics["cache.hits"].value = static_cast<double>(aggregate_.cache_hits);
      metrics["cache.misses"].value =
          static_cast<double>(aggregate_.cache_misses);
      metrics["cache.evictions"].value =
          static_cast<double>(aggregate_.cache_evictions);
      // Derived: the replay time the cache tier adds, measured against the
      // same traces replayed with the tier disabled (capacity 0).
      PrefixCacheOptions disabled = cache_;
      disabled.capacity_bytes = 0.0;
      std::vector<double> plain;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        obs::TimeseriesCollector timeline(timeline_config(), sizes_.servers);
        obs::EventLog event_log(kEventLogCap);
        ScopedSpan span("sim.probe.capacity0");
        const std::int64_t start = now_ns();
        for (std::size_t k = 0; k < traces_.size(); ++k) {
          const double offset =
              static_cast<double>(k) * config_.video_duration_sec;
          timeline.set_time_offset(offset);
          event_log.set_time_offset(offset);
          (void)replay(traces_[k], disabled, {}, &timeline, &event_log);
        }
        plain.push_back(static_cast<double>(now_ns() - start) * 1e-9);
      }
      notes["cache.capacity0_replay_s"] = {median(plain), "s"};
      metrics["cache.tier_s"].value = run_s - median(plain);
    }
    // A live cache fuses every server into one shard, so only the cache-less
    // workload has a sharded replay to probe.
    if (!has_cache()) shard_probe(metrics, notes, problems);
    return problems;
  }

 private:
  static constexpr int kProbeReps = 3;
  static constexpr std::size_t kProbeShards = 4;
  static constexpr double kPrefixFraction = 0.25;  ///< of each video, cached

  [[nodiscard]] bool has_cache() const { return cache_.capacity_bytes > 0.0; }

  [[nodiscard]] obs::TimeseriesConfig timeline_config() const {
    obs::TimeseriesConfig ts;
    ts.interval_sec = config_.video_duration_sec / 64.0;
    return ts;
  }

  /// vodrep_plan's run_sim: the sharded entry points, which at one shard
  /// are the monolithic SimEngine replay.
  SimResult replay(const RequestTrace& trace, const PrefixCacheOptions& cache,
                   const ShardedSimOptions& options,
                   obs::TimeseriesCollector* timeline,
                   obs::EventLog* event_log) const {
    if (has_cache()) {
      return simulate_sharded_prefix_cache(planned_.layout, config_, cache,
                                           trace, options, timeline,
                                           event_log);
    }
    return simulate_sharded(planned_.layout, config_, trace, options,
                            timeline, event_log);
  }

  /// Departure-heap high water of one peak, read off a SimEngine driven
  /// the way the one-shard entry points drive it.
  std::size_t heap_high_water() const {
    ScopedSpan span("sim.probe.engine");
    SimEngine engine(config_);
    std::optional<ReplicatedPolicy> plain;
    std::optional<PrefixCachePolicy> cached;
    StoragePolicy* policy = nullptr;
    if (has_cache()) {
      policy = &cached.emplace(planned_.layout, config_, cache_);
    } else {
      policy = &plain.emplace(planned_.layout, config_);
    }
    (void)engine.run(*policy, traces_.front());
    return engine.event_stats().heap_high_water;
  }

  /// One peak replayed at one shard and at four, a few times each, with the
  /// run profiler armed for the sharded engine's phases.  The four-shard
  /// counters must equal the monolithic ones.
  void shard_probe(MetricMap& metrics, MetricMap& notes,
                   std::vector<std::string>& problems) {
    ThreadPool pool(threads_);
    ShardedSimOptions sharded;
    sharded.num_shards = kProbeShards;
    sharded.pool = &pool;
    obs::RunProfiler& profiler = obs::RunProfiler::global();
    profiler.clear();
    profiler.set_enabled(true);
    std::vector<double> mono_s;
    std::vector<double> shard_s;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      SimResult mono;
      SimResult split;
      {
        obs::TimeseriesCollector timeline(timeline_config(), sizes_.servers);
        obs::EventLog event_log(kEventLogCap);
        ScopedSpan span("sim.probe.shards1");
        const std::int64_t start = now_ns();
        mono = replay(traces_.front(), cache_, {}, &timeline, &event_log);
        mono_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
      }
      {
        obs::TimeseriesCollector timeline(timeline_config(), sizes_.servers);
        obs::EventLog event_log(kEventLogCap);
        ScopedSpan span("sim.probe.shards4");
        const std::int64_t start = now_ns();
        split = replay(traces_.front(), cache_, sharded, &timeline, &event_log);
        shard_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
      }
      if (!same_counters(mono, split)) {
        problems.emplace_back("4-shard replay counters differ from monolithic");
      }
    }
    profiler.set_enabled(false);
    const obs::ProfileSnapshot profile = profiler.snapshot();
    profiler.clear();
    const auto per_replay = [&](std::string_view name) {
      return phase_per_replay(profile, name);
    };
    metrics["sim.shard.plan_s"].value = per_replay("plan");
    metrics["sim.shard.setup_s"].value = per_replay("setup");
    metrics["sim.shard.run_s"].value = per_replay("shard_run");
    metrics["sim.shard.merge_s"].value =
        per_replay("epoch_merge") + per_replay("finish");
    notes["sim.shard.replay_s1_s"] = {median(mono_s), "s"};
    notes["sim.shard.replay_s4_s"] = {median(shard_s), "s"};
    metrics["sim.shard.speedup"].value = ratio(median(mono_s), median(shard_s));
  }

  /// Wall per sharded replay of a sim.sharded child phase (some children
  /// are entered once per merge epoch).
  static double phase_per_replay(const obs::ProfileSnapshot& profile,
                            std::string_view name) {
    const obs::PhaseStats* root = find_phase(profile.phases, {"sim.sharded"});
    const obs::PhaseStats* child = find_phase(profile.phases, {"sim.sharded", name});
    if (root == nullptr || child == nullptr || root->count == 0) return 0.0;
    return static_cast<double>(child->wall_ns) * 1e-9 /
           static_cast<double>(root->count);
  }

  SimSizes sizes_;
  std::uint64_t seed_;
  std::size_t threads_;
  SimConfig config_;
  PrefixCacheOptions cache_;
  std::string path_;
  std::vector<double> popularity_;
  Planned planned_;
  std::vector<RequestTrace> traces_;
  std::vector<SimResult> results_;
  SimResult aggregate_;
  std::vector<std::string> report_problems_;
  std::size_t report_bytes_ = 0;
  std::size_t timeline_samples_ = 0;
  std::uint64_t event_log_dropped_ = 0;
  std::uint64_t first_print_ = 0;
  std::size_t audit_checks_ = 0;
};

// ---------------------------------------------------------------------------
// sa_library: parallel-tempering SA at library scale, fixed move budget.

class SaLibrary final : public Workload {
 public:
  explicit SaLibrary(const WorkloadConfig& config)
      : videos_(config.tiny ? 2000 : 1'000'000),
        servers_(config.tiny ? 16 : 1024),
        seed_(config.seed),
        threads_(config.threads) {
    // vodrep_plan's fixed anneal options; the budget is 20 temperature
    // steps of `moves` moves (full size: 25,000) on 4 tempering chains.
    options_.anneal.initial_temperature = 1.0;
    options_.anneal.final_temperature = 1e-3;
    options_.anneal.max_temperature_steps = 20;
    options_.anneal.moves_per_temperature = config.tiny ? 200 : 25'000;
    options_.anneal.swap_period = 8;
    options_.anneal.temperature_spread = 1.15;
    options_.chains = kChains;
  }

  void setup() override {
    problem_.videos.duration_sec = units::minutes(kDurationMin);
    problem_.videos.popularity = make_popularity(videos_);
    problem_.cluster.num_servers = servers_;
    problem_.cluster.bandwidth_bps_per_server = units::gbps(kBandwidthGbps);
    // 1000 GB per server at full size; the same storage per hosted video
    // at the self-test size.
    const double videos_per_server =
        static_cast<double>(videos_) / static_cast<double>(servers_);
    problem_.cluster.storage_bytes_per_server =
        units::gigabytes(1000.0 * videos_per_server / (1e6 / 1024.0));
    problem_.ladder.rates_bps = {units::mbps(1), units::mbps(2),
                                 units::mbps(3), units::mbps(4),
                                 units::mbps(6), units::mbps(8)};
    problem_.expected_peak_requests = kSaLambdaPerMin * kDurationMin;
    problem_.weights.alpha = 1.0;
    problem_.weights.beta = 1.0;
    pool_ = std::make_unique<ThreadPool>(threads_);
  }

  void iterate(bool traced) override {
    obs::RunProfiler& profiler = obs::RunProfiler::global();
    if (traced) {
      profiler.clear();
      profiler.set_enabled(true);
    }
    result_ = SaSolverResult{};  // free the last solution first
    {
      ScopedSpan span("sa.solve");
      result_ = solve_scalable(problem_, seed_, options_, pool_.get());
    }
    if (!traced) return;
    profiler.set_enabled(false);
    const obs::ProfileSnapshot profile = profiler.snapshot();
    profiler.clear();
    const auto wall = [&](std::initializer_list<std::string_view> path) {
      return phase_wall_s(find_phase(profile.phases, path));
    };
    const double solve = wall({"sa.solve"});
    const double construct = wall({"sa.solve", "sa.pt", "construct"});
    const double superstep = wall({"sa.solve", "sa.pt", "superstep"});
    const double exchange = wall({"sa.solve", "sa.pt", "exchange"});
    const double extract = wall({"sa.solve", "extract"});
    samples_["sa.construct_s"].push_back(construct);
    samples_["sa.construct_cpu_s"].push_back(
        total_phase_s(profile.phases, "sa.pt.chain_construct", true));
    samples_["sa.chain_construct_wall_s"].push_back(
        total_phase_s(profile.phases, "sa.pt.chain_construct", false));
    samples_["sa.superstep_s"].push_back(superstep);
    samples_["sa.extract_s"].push_back(extract);
    samples_["sa.unattributed_s"].push_back(
        solve - construct - superstep - exchange - extract);
  }

  std::vector<std::string> check(bool first) override {
    std::vector<std::string> problems;
    Fingerprint print;
    print.add(result_.objective);
    for (std::size_t index : result_.solution.bitrate_index) {
      print.add(static_cast<std::uint64_t>(index));
    }
    if (first) {
      first_print_ = print.value();
      ScopedSpan span("audit.solution");
      // Eq. 5 is the solver's soft constraint; vodrep_plan tolerates its
      // overflow and rejects every other violation.
      const AuditReport report =
          LayoutAuditor::audit_solution(problem_, result_.solution);
      audit_checks_ += report.checks_performed;
      if (!report.ok_ignoring(ViolationKind::kBandwidthOverflow)) {
        problems.push_back("audit_solution: " + report.summary());
      }
    } else if (print.value() != first_print_) {
      problems.emplace_back("SA result differs from the first iteration's");
    }
    return problems;
  }

  void quality(MetricMap& values) const override {
    const std::vector<double> loads =
        compute_usage(problem_, result_.solution).bandwidth_bps;
    values["imbalance_eq2"] = {imbalance_max_relative(loads), "fraction"};
    values["imbalance_eq3"] = {imbalance_cv(loads), "fraction"};
    values["objective_eq1"] = {result_.objective, "score"};
    double rate_bps = 0.0;
    for (double rate : result_.solution.bitrates(problem_.ladder)) {
      rate_bps += rate;
    }
    values["mean_bitrate_mbps"] = {
        units::to_mbps(rate_bps / static_cast<double>(videos_)), "Mb/s"};
    values["feasible"] = {result_.feasible ? 1.0 : 0.0, "bool"};
  }

  std::vector<std::string> layer_metrics(MetricMap& metrics,
                                         MetricMap& notes) override {
    for (const auto& [name, values] : samples_) {
      if (name == "sa.chain_construct_wall_s") {
        notes[name] = {median(values), "s"};
        continue;
      }
      metrics[name].value = median(values);
    }
    const AnnealResult<ScalableSolution>& anneal = result_.anneal;
    const auto proposed = static_cast<double>(anneal.moves_proposed);
    metrics["anneal.moves_proposed"].value = proposed;
    metrics["anneal.moves_per_s"].value = ratio(
        proposed, recorder().median_run_seconds("sa.solve", RunKind::kTimed));
    metrics["anneal.accept_ratio"].value =
        ratio(static_cast<double>(anneal.moves_accepted), proposed);
    metrics["anneal.noop_ratio"].value =
        ratio(static_cast<double>(anneal.moves_noop), proposed);
    metrics["anneal.swap_accept_ratio"].value =
        ratio(static_cast<double>(anneal.swap_accepts),
              static_cast<double>(anneal.swap_attempts));
    metrics["audit.checks"].value = static_cast<double>(audit_checks_);
    return {};
  }

 private:
  static constexpr std::size_t kChains = 4;
  static constexpr double kSaLambdaPerMin = 30.0;  // vodrep_plan --sa-lambda
  std::size_t videos_;
  std::size_t servers_;
  std::uint64_t seed_;
  std::size_t threads_;
  SaSolverOptions options_;
  ScalableProblem problem_;
  std::unique_ptr<ThreadPool> pool_;
  SaSolverResult result_;
  /// Per traced iteration: the profiler's phase split of the solve.
  std::map<std::string, std::vector<double>> samples_;
  std::uint64_t first_print_ = 0;
  std::size_t audit_checks_ = 0;
};

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

AuditReport audit_layout(const Layout& layout, const ReplicationPlan& plan,
                         const std::vector<double>& popularity,
                         std::size_t num_servers, std::size_t capacity) {
  ScopedSpan span("audit.layout");
  LayoutAuditor::Limits limits;
  limits.num_servers = num_servers;
  limits.capacity_per_server = capacity;
  return LayoutAuditor(limits).audit(layout, &plan, &popularity);
}

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config) {
  const bool tiny = config.tiny;
  if (config.name == "plan_library") {
    return std::make_unique<PlanLibrary>(config);
  }
  if (config.name == "sim_peak") {
    SimSizes sizes;
    sizes.videos = tiny ? 500 : 100'000;
    sizes.servers = tiny ? 8 : 1024;
    sizes.degree = 1.2;
    sizes.load = 1.0;
    sizes.peaks = tiny ? 2 : kSimPeaks;
    return std::make_unique<SimWorkload>(config, sizes);
  }
  if (config.name == "sim_edge_cache") {
    SimSizes sizes;
    sizes.videos = tiny ? 400 : 20'000;
    sizes.servers = tiny ? 8 : 256;
    sizes.degree = 1.0;
    sizes.load = 1.1;
    sizes.peaks = 1;
    // 2000 GB holds ~740 prefixes of 2.7 GB; the tiny size keeps the same
    // share of the library resident.
    sizes.cache_gb = tiny ? 40.0 : 2000.0;
    return std::make_unique<SimWorkload>(config, sizes);
  }
  if (config.name == "sa_library") {
    return std::make_unique<SaLibrary>(config);
  }
  throw InvalidArgumentError("unknown workload: " + config.name);
}

}  // namespace vodbench
