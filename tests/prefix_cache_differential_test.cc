// Differential tests pinning PrefixCache to the seed implementation: a
// frozen, verbatim copy of the seed cache (every eviction scans all M
// entries for the smallest last-touch tick, or the smallest (frequency,
// tick) pair under LFU) is replayed against the library on seeded access
// sequences, under both eviction policies.  After every operation the next
// victim, the residency of every entry, the hit/miss/eviction/insertion
// counters and the bit pattern of used_bytes must agree.  The library keeps
// the entries on frequency-bucketed lists in touch order instead; the two
// pick the same victims because ticks are unique and only ever increase,
// so list order is tick order.
//
// A frozen copy of the seed PrefixCachePolicy, wired to the frozen cache,
// is also replayed end to end against the library policy on random worlds:
// every SimResult counter (per-reason rejections included) and every
// integrated float must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/layout.h"
#include "src/sim/dispatcher.h"
#include "src/sim/engine.h"
#include "src/sim/prefix_cache_policy.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/units.h"
#include "src/workload/popularity.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

// ---------------------------------------------------------------------------
// Frozen seed reference, copied verbatim from the seed's PrefixCache and
// PrefixCachePolicy (only renamed, and pick_victim made public).
// ---------------------------------------------------------------------------

class SeedPrefixCache {
 public:
  SeedPrefixCache(CacheEvictionPolicy policy, double capacity_bytes,
                  std::vector<double> entry_bytes)
      : policy_(policy),
        capacity_bytes_(capacity_bytes),
        entry_bytes_(std::move(entry_bytes)) {
    require(std::isfinite(capacity_bytes_) && capacity_bytes_ >= 0.0,
            "PrefixCache: capacity must be finite and non-negative");
    for (double bytes : entry_bytes_) {
      require(std::isfinite(bytes) && bytes > 0.0,
              "PrefixCache: entry sizes must be positive and finite");
    }
    const std::size_t m = entry_bytes_.size();
    resident_.assign(m, 0);
    freq_.assign(m, 0);
    last_touch_.assign(m, 0);
    stats_.capacity_bytes = capacity_bytes_;
  }

  [[nodiscard]] bool lookup(std::size_t video) {
    ++tick_;
    if (resident_[video] != 0) {
      ++freq_[video];
      last_touch_[video] = tick_;
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    return false;
  }

  void insert(std::size_t video) {
    if (resident_[video] != 0) return;
    const double bytes = entry_bytes_[video];
    if (bytes > capacity_bytes_) return;  // can never fit; skip, no churn
    while (stats_.used_bytes + bytes > capacity_bytes_) {
      const std::size_t victim = pick_victim();
      if (victim == resident_.size()) {
        stats_.used_bytes = 0.0;
        break;
      }
      resident_[victim] = 0;
      stats_.used_bytes -= entry_bytes_[victim];
      ++stats_.evictions;
    }
    ++tick_;
    resident_[video] = 1;
    freq_[video] = 1;
    last_touch_[video] = tick_;
    stats_.used_bytes += bytes;
    ++stats_.insertions;
  }

  [[nodiscard]] bool resident(std::size_t video) const {
    return resident_[video] != 0;
  }
  [[nodiscard]] const CacheTierStats& stats() const { return stats_; }

  [[nodiscard]] std::size_t pick_victim() const {
    std::size_t victim = resident_.size();
    for (std::size_t i = 0; i < resident_.size(); ++i) {
      if (resident_[i] == 0) continue;
      if (victim == resident_.size()) {
        victim = i;
        continue;
      }
      if (policy_ == CacheEvictionPolicy::kLru) {
        if (last_touch_[i] < last_touch_[victim]) victim = i;
      } else {
        if (freq_[i] < freq_[victim] ||
            (freq_[i] == freq_[victim] &&
             last_touch_[i] < last_touch_[victim])) {
          victim = i;
        }
      }
    }
    return victim;
  }

 private:
  CacheEvictionPolicy policy_;
  double capacity_bytes_ = 0.0;
  std::vector<double> entry_bytes_;
  std::vector<std::uint8_t> resident_;
  std::vector<std::uint64_t> freq_;
  std::vector<std::uint64_t> last_touch_;
  std::uint64_t tick_ = 0;
  CacheTierStats stats_;
};

std::vector<double> seed_resolve_fractions(const PrefixCacheOptions& options,
                                           std::size_t num_videos) {
  std::vector<double> fractions = options.prefix_fraction;
  if (fractions.empty()) {
    fractions.assign(num_videos, options.uniform_prefix_fraction);
  }
  require(fractions.size() == num_videos,
          "PrefixCachePolicy: prefix-fraction size mismatch");
  for (double f : fractions) {
    require(std::isfinite(f) && f > 0.0 && f <= 1.0,
            "PrefixCachePolicy: prefix fraction must be in (0, 1]");
  }
  return fractions;
}

std::vector<double> seed_prefix_bytes(const std::vector<double>& fractions,
                                      const SimConfig& config) {
  const double whole =
      units::video_bytes(config.video_duration_sec, config.stream_bitrate_bps);
  std::vector<double> bytes;
  bytes.reserve(fractions.size());
  for (double f : fractions) bytes.push_back(whole * f);
  return bytes;
}

class SeedPrefixCachePolicy final : public StoragePolicy {
 public:
  SeedPrefixCachePolicy(const Layout& layout, const SimConfig& config,
                        const PrefixCacheOptions& options)
      : layout_(layout),
        config_(config),
        cache_enabled_(options.capacity_bytes > 0.0),
        prefix_fraction_(
            seed_resolve_fractions(options, layout.assignment.size())),
        dispatcher_(layout, config.redirect, config.backbone_bps,
                    config.batching_window_sec, config.video_duration_sec,
                    config.batching_mode),
        cache_(options.eviction, options.capacity_bytes,
               seed_prefix_bytes(prefix_fraction_, config_)) {}

  void bind(SimEngine& engine) override {
    require(engine.num_servers() == config_.num_servers,
            "PrefixCachePolicy: engine/config server count mismatch");
    engine_ = &engine;
  }

  [[nodiscard]] const CacheTierStats* cache_stats() const override {
    return cache_enabled_ ? &cache_.stats() : nullptr;
  }

  PolicyDecision dispatch(const Request& request) override {
    const double bitrate = config_.stream_bitrate_bps;
    double origin_sec = request.watch_fraction * config_.video_duration_sec;
    bool hit = false;
    if (cache_enabled_) {
      hit = cache_.lookup(request.video);
      if (hit) {
        const double past_prefix = std::max(
            0.0, request.watch_fraction - prefix_fraction_[request.video]);
        origin_sec = past_prefix * config_.video_duration_sec;
        if (origin_sec <= 0.0) {
          PolicyDecision outcome;
          outcome.admitted = true;
          return outcome;
        }
      }
    }
    const auto decision = dispatcher_.dispatch(request.video, bitrate,
                                               engine_->servers(),
                                               request.arrival_time);
    if (!decision.has_value()) {
      return reject_for(request.video, hit || !cache_enabled_);
    }
    if (cache_enabled_ && !hit) cache_.insert(request.video);
    PolicyDecision outcome;
    outcome.admitted = true;
    outcome.server = static_cast<std::int32_t>(decision->server);
    outcome.redirected = decision->redirected;
    outcome.via_backbone = decision->via_backbone;
    outcome.batched = decision->batched;
    if (decision->reserves_bandwidth()) {
      engine_->admit(decision->server, bitrate);
      streams_.push_back(Stream{decision->server, decision->via_backbone});
      const double held_sec =
          decision->batched ? decision->patch_duration_sec : origin_sec;
      engine_->schedule_departure(request.arrival_time + held_sec,
                                  streams_.size() - 1);
    }
    return outcome;
  }

  void on_departure(std::size_t stream) override {
    const Stream& record = streams_[stream];
    if (!engine_->server(record.server).failed()) {
      engine_->release(record.server, config_.stream_bitrate_bps);
    }
    if (record.via_backbone) {
      dispatcher_.release_backbone(config_.stream_bitrate_bps);
    }
  }

  std::size_t on_crash(std::size_t server) override {
    const std::size_t disrupted = engine_->fail(server);
    dispatcher_.on_server_failed(server);
    return disrupted;
  }

 private:
  struct Stream {
    std::size_t server = 0;
    bool via_backbone = false;
  };

  [[nodiscard]] PolicyDecision reject_for(std::size_t video,
                                          bool cache_hit) const {
    PolicyDecision rejected;
    bool any_alive = false;
    for (const std::size_t holder : layout_.assignment[video]) {
      if (!engine_->server(holder).failed()) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) {
      rejected.reject_reason = obs::RejectReason::kNoReplicaAlive;
    } else {
      rejected.reject_reason = cache_hit
                                   ? obs::RejectReason::kNoBandwidth
                                   : obs::RejectReason::kCacheMissOriginBusy;
    }
    return rejected;
  }

  const Layout& layout_;
  const SimConfig config_;
  const bool cache_enabled_;
  std::vector<double> prefix_fraction_;
  Dispatcher dispatcher_;
  SeedPrefixCache cache_;
  SimEngine* engine_ = nullptr;
  std::vector<Stream> streams_;
};

// ---------------------------------------------------------------------------
// Cache-level differential.
// ---------------------------------------------------------------------------

const CacheEvictionPolicy kPolicies[] = {CacheEvictionPolicy::kLru,
                                         CacheEvictionPolicy::kLfu};

const char* policy_name(CacheEvictionPolicy policy) {
  return policy == CacheEvictionPolicy::kLru ? "lru" : "lfu";
}

struct CacheInstance {
  std::vector<double> entry_bytes;
  double capacity_bytes = 0.0;
};

/// Entry sizes drawn from one of four families: uniform (single evictions),
/// heterogeneous (several evictions per insert), decimal sizes whose sums
/// leave float residue, and heterogeneous with one entry larger than the
/// whole cache.  Capacities run from 0 past the sum of all entries.
CacheInstance random_instance(Rng& rng) {
  CacheInstance instance;
  const std::size_t m = 1 + rng.uniform_index(60);
  const std::uint64_t family = rng.uniform_index(4);
  const double unit = rng.uniform(1.0, 1000.0);
  instance.entry_bytes.resize(m);
  for (double& bytes : instance.entry_bytes) {
    switch (family) {
      case 0:
        bytes = unit;
        break;
      case 2:
        bytes = 0.1 * static_cast<double>(1 + rng.uniform_index(9));
        break;
      default:
        bytes = unit * rng.uniform(0.05, 1.0);
        break;
    }
  }
  double total = 0.0;
  for (double bytes : instance.entry_bytes) total += bytes;
  switch (rng.uniform_index(5)) {
    case 0:
      instance.capacity_bytes = 0.0;
      break;
    case 1:
      instance.capacity_bytes = total * 1.5;
      break;
    case 2:
      instance.capacity_bytes = total;
      break;
    default:
      instance.capacity_bytes = total * rng.uniform(0.02, 0.9);
      break;
  }
  if (family == 3) {
    instance.entry_bytes[rng.uniform_index(m)] =
        instance.capacity_bytes * 2.0 + 1.0;
  }
  return instance;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares everything observable after one operation; returns false (with
/// gtest failures naming the field) on the first divergence.
bool expect_same_state(const SeedPrefixCache& seed, const PrefixCache& cache,
                       std::size_t m) {
  const std::size_t seed_victim = seed.pick_victim();
  EXPECT_EQ(cache.victim(), seed_victim);
  for (std::size_t v = 0; v < m; ++v) {
    if (cache.resident(v) != seed.resident(v)) {
      ADD_FAILURE() << "residency of entry " << v << " diverged";
      return false;
    }
  }
  const CacheTierStats& a = seed.stats();
  const CacheTierStats& b = cache.stats();
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.misses, a.misses);
  EXPECT_EQ(b.evictions, a.evictions);
  EXPECT_EQ(b.insertions, a.insertions);
  EXPECT_TRUE(same_bits(b.used_bytes, a.used_bytes))
      << b.used_bytes << " vs " << a.used_bytes;
  EXPECT_TRUE(same_bits(b.capacity_bytes, a.capacity_bytes));
  return cache.victim() == seed_victim && b.hits == a.hits &&
         b.misses == a.misses && b.evictions == a.evictions &&
         b.insertions == a.insertions && same_bits(b.used_bytes, a.used_bytes);
}

/// What the replays exercised, so a generator change cannot quietly stop
/// covering the multi-eviction and never-admitted paths.
struct Coverage {
  std::uint64_t evictions = 0;
  std::uint64_t multi_eviction_inserts = 0;
  std::uint64_t oversize_skips = 0;
};

/// Replays one seeded operation sequence on both caches.  Accesses follow a
/// Zipf law over a shuffled catalogue so LFU sees a spread of frequencies.
/// Most operations are the policy's own lookup-then-insert-on-miss; the
/// rest are bare lookups (a miss that is never admitted) and bare inserts
/// (which are no-ops on resident entries).
void replay_ops(Rng& rng, const CacheInstance& instance,
                CacheEvictionPolicy policy, std::size_t ops,
                Coverage& coverage) {
  const std::size_t m = instance.entry_bytes.size();
  SeedPrefixCache seed(policy, instance.capacity_bytes, instance.entry_bytes);
  PrefixCache cache(policy, instance.capacity_bytes, instance.entry_bytes);
  const std::vector<double> popularity =
      zipf_popularity(m, rng.uniform(0.0, 1.2));
  std::vector<double> cdf(m);
  double running = 0.0;
  for (std::size_t v = 0; v < m; ++v) cdf[v] = running += popularity[v];
  std::vector<std::size_t> order(m);
  for (std::size_t v = 0; v < m; ++v) order[v] = v;
  rng.shuffle(order);
  ASSERT_TRUE(expect_same_state(seed, cache, m));
  for (std::size_t op = 0; op < ops; ++op) {
    const double u = rng.uniform() * running;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t video = order[std::min(rank, m - 1)];
    const std::uint64_t kind = rng.uniform_index(10);
    const CacheTierStats before = seed.stats();
    const bool was_resident = seed.resident(video);
    if (kind == 0) {
      seed.insert(video);
      cache.insert(video);
    } else {
      const bool seed_hit = seed.lookup(video);
      ASSERT_EQ(cache.lookup(video), seed_hit) << "op " << op;
      if (!seed_hit && kind != 1) {
        seed.insert(video);
        cache.insert(video);
      }
    }
    ASSERT_TRUE(expect_same_state(seed, cache, m)) << "op " << op;
    const CacheTierStats& after = seed.stats();
    coverage.evictions += after.evictions - before.evictions;
    if (after.evictions >= before.evictions + 2) {
      ++coverage.multi_eviction_inserts;
    }
    if (!was_resident && instance.entry_bytes[video] > instance.capacity_bytes &&
        (kind == 0 || kind > 1)) {
      ++coverage.oversize_skips;
    }
  }
}

TEST(PrefixCacheDifferentialTest, MatchesSeedScanOnRandomSequences) {
  Rng rng(0xD1FFCAC7E);
  Coverage coverage;
  for (int trial = 0; trial < 400; ++trial) {
    const CacheInstance instance = random_instance(rng);
    for (const CacheEvictionPolicy policy : kPolicies) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " " << policy_name(policy)
                   << " M=" << instance.entry_bytes.size()
                   << " capacity=" << instance.capacity_bytes);
      Rng ops_rng(static_cast<std::uint64_t>(trial) * 7919 + 1);
      replay_ops(ops_rng, instance, policy, 1500, coverage);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(coverage.evictions, 100000u);
  EXPECT_GT(coverage.multi_eviction_inserts, 1000u);
  EXPECT_GT(coverage.oversize_skips, 1000u);
}

// Long skewed runs on a larger catalogue: frequencies climb into the
// hundreds, so LFU exercises deep bucket chains and bucket reuse.
TEST(PrefixCacheDifferentialTest, MatchesSeedScanOnLongSkewedRuns) {
  Rng rng(0x5EEDCAC7E);
  Coverage coverage;
  for (int trial = 0; trial < 6; ++trial) {
    CacheInstance instance;
    instance.entry_bytes.resize(400);
    for (double& bytes : instance.entry_bytes) bytes = rng.uniform(1.0, 9.0);
    instance.capacity_bytes = 300.0 + 200.0 * static_cast<double>(trial);
    for (const CacheEvictionPolicy policy : kPolicies) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " " << policy_name(policy));
      replay_ops(rng, instance, policy, 30000, coverage);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Policy-level differential: end-to-end replays through SimEngine.
// ---------------------------------------------------------------------------

struct World {
  SimConfig config;
  Layout layout;
  RequestTrace trace;
};

World random_world(Rng& rng) {
  World world;
  const std::size_t m = 5 + rng.uniform_index(80);
  const std::size_t n = 2 + rng.uniform_index(9);
  world.config.num_servers = n;
  world.config.stream_bitrate_bps = units::mbps(4);
  world.config.bandwidth_bps_per_server =
      units::mbps(4) * static_cast<double>(1 + rng.uniform_index(30));
  world.config.video_duration_sec = rng.uniform(50.0, 2000.0);
  switch (rng.uniform_index(3)) {
    case 1:
      world.config.redirect = RedirectMode::kOtherHolders;
      break;
    case 2:
      world.config.redirect = RedirectMode::kBackboneProxy;
      world.config.backbone_bps =
          units::mbps(4) * static_cast<double>(1 + rng.uniform_index(10));
      break;
    default:
      break;
  }
  if (rng.bernoulli(0.3)) {
    world.config.batching_window_sec = rng.uniform(5.0, 60.0);
    world.config.batching_mode = rng.bernoulli(0.5)
                                     ? BatchingMode::kPiggyback
                                     : BatchingMode::kPatching;
  }
  const double horizon = rng.uniform(500.0, 5000.0);
  if (rng.bernoulli(0.4)) {
    world.config.failures.push_back(ServerFailure{
        rng.uniform(1.0, horizon / 2.0),
        static_cast<std::size_t>(rng.uniform_index(n))});
  }

  world.layout.assignment.resize(m);
  std::vector<std::size_t> servers(n);
  for (std::size_t s = 0; s < n; ++s) servers[s] = s;
  for (auto& holders : world.layout.assignment) {
    const std::size_t replicas = 1 + rng.uniform_index(n);
    for (std::size_t k = 0; k < replicas; ++k) {
      const std::size_t j = k + rng.uniform_index(n - k);
      std::swap(servers[k], servers[j]);
      holders.push_back(servers[k]);
    }
  }

  TraceSpec spec;
  spec.arrival_rate = rng.uniform(0.1, 2.0);
  spec.horizon = horizon;
  spec.popularity = zipf_popularity(m, rng.uniform(0.0, 1.2));
  if (rng.bernoulli(0.5)) {
    spec.abandonment.completion_probability = rng.uniform(0.2, 1.0);
  }
  world.trace = generate_trace(rng, spec);
  return world;
}

TEST(PrefixCacheDifferentialTest, PolicyReplaysSeedPolicyExactly) {
  Rng rng(0xE2EC0DE);
  std::uint64_t evictions = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const World world = random_world(rng);
    const std::size_t m = world.layout.assignment.size();
    PrefixCacheOptions options;
    if (rng.bernoulli(0.5)) {
      options.prefix_fraction.resize(m);
      for (double& f : options.prefix_fraction) f = rng.uniform(0.01, 1.0);
    } else {
      options.uniform_prefix_fraction = rng.uniform(0.05, 1.0);
    }
    const double whole = units::video_bytes(world.config.video_duration_sec,
                                            world.config.stream_bitrate_bps);
    // 0 disables the tier; 1.2·M wholes holds every prefix.
    const double scale = trial % 10 == 0   ? 0.0
                         : trial % 10 == 1 ? 1.2 * static_cast<double>(m)
                                           : rng.uniform(0.1, 0.6) *
                                                 static_cast<double>(m);
    options.capacity_bytes = scale * whole;
    for (const CacheEvictionPolicy policy : kPolicies) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " " << policy_name(policy));
      options.eviction = policy;
      SimEngine seed_engine(world.config);
      SeedPrefixCachePolicy seed_policy(world.layout, world.config, options);
      const SimResult expected = seed_engine.run(seed_policy, world.trace);
      SimEngine engine(world.config);
      PrefixCachePolicy cached(world.layout, world.config, options);
      const SimResult actual = engine.run(cached, world.trace);

      EXPECT_EQ(actual.total_requests, expected.total_requests);
      EXPECT_EQ(actual.rejected, expected.rejected);
      EXPECT_EQ(actual.rejected_by_reason, expected.rejected_by_reason);
      EXPECT_EQ(actual.redirected, expected.redirected);
      EXPECT_EQ(actual.proxied, expected.proxied);
      EXPECT_EQ(actual.batched, expected.batched);
      EXPECT_EQ(actual.disrupted, expected.disrupted);
      EXPECT_EQ(actual.served_per_server, expected.served_per_server);
      EXPECT_EQ(actual.cache_hits, expected.cache_hits);
      EXPECT_EQ(actual.cache_misses, expected.cache_misses);
      EXPECT_EQ(actual.cache_evictions, expected.cache_evictions);
      EXPECT_EQ(actual.mean_imbalance_eq2, expected.mean_imbalance_eq2);
      EXPECT_EQ(actual.mean_imbalance_cv, expected.mean_imbalance_cv);
      EXPECT_EQ(actual.peak_imbalance_eq2, expected.peak_imbalance_eq2);
      EXPECT_EQ(actual.utilization_per_server,
                expected.utilization_per_server);
      ASSERT_EQ(cached.cache_stats() == nullptr,
                seed_policy.cache_stats() == nullptr);
      if (cached.cache_stats() != nullptr) {
        EXPECT_EQ(cached.cache_stats()->insertions,
                  seed_policy.cache_stats()->insertions);
        EXPECT_TRUE(same_bits(cached.cache_stats()->used_bytes,
                              seed_policy.cache_stats()->used_bytes));
      }
      evictions += expected.cache_evictions;
    }
  }
  // The worlds must actually churn the cache, or the replay proves nothing.
  EXPECT_GT(evictions, 1000u);
}

}  // namespace
}  // namespace vodrep
