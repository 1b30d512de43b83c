#include "src/sim/prefix_cache_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/util/check.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace vodrep {
namespace {

std::vector<double> resolve_fractions(const PrefixCacheOptions& options,
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

std::vector<double> prefix_bytes(const std::vector<double>& fractions,
                                 const SimConfig& config) {
  const double whole =
      units::video_bytes(config.video_duration_sec, config.stream_bitrate_bps);
  std::vector<double> bytes;
  bytes.reserve(fractions.size());
  for (double f : fractions) bytes.push_back(whole * f);
  return bytes;
}

}  // namespace

PrefixCache::PrefixCache(CacheEvictionPolicy policy, double capacity_bytes,
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
  // Entry and bucket-sentinel nodes share 32-bit links: M entries plus at
  // most M non-empty buckets, one being created and the chain sentinel.
  require(entry_bytes_.size() <=
              (std::numeric_limits<std::uint32_t>::max() - 2) / 2,
          "PrefixCache: too many videos for 32-bit list links");
  num_entries_ = static_cast<std::uint32_t>(entry_bytes_.size());
  bucket_of_.assign(num_entries_, kChain);
  next_.assign(num_entries_, 0);
  prev_.assign(num_entries_, 0);
  buckets_.emplace_back();  // the chain sentinel: empty chain links itself
  next_.push_back(head_node(kChain));
  prev_.push_back(head_node(kChain));
  stats_.capacity_bytes = capacity_bytes_;
}

std::uint32_t PrefixCache::bucket_after(std::uint32_t before,
                                        std::uint64_t freq) {
  const std::uint32_t after = buckets_[before].next;
  if (after != kChain && buckets_[after].freq == freq) return after;
  std::uint32_t bucket = 0;
  if (free_buckets_.empty()) {
    bucket = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
    next_.push_back(0);
    prev_.push_back(0);
  } else {
    bucket = free_buckets_.back();
    free_buckets_.pop_back();
  }
  const std::uint32_t head = head_node(bucket);
  next_[head] = head;
  prev_[head] = head;
  buckets_[bucket] = Bucket{freq, before, after};
  buckets_[before].next = bucket;
  buckets_[after].prev = bucket;
  return bucket;
}

void PrefixCache::append(std::uint32_t entry, std::uint32_t bucket) {
  const std::uint32_t head = head_node(bucket);
  const std::uint32_t tail = prev_[head];
  next_[tail] = entry;
  prev_[entry] = tail;
  next_[entry] = head;
  prev_[head] = entry;
  bucket_of_[entry] = bucket;
}

void PrefixCache::detach(std::uint32_t entry) {
  next_[prev_[entry]] = next_[entry];
  prev_[next_[entry]] = prev_[entry];
}

void PrefixCache::drop_if_empty(std::uint32_t bucket) {
  const std::uint32_t head = head_node(bucket);
  if (next_[head] != head) return;
  const Bucket& dropped = buckets_[bucket];
  buckets_[dropped.prev].next = dropped.next;
  buckets_[dropped.next].prev = dropped.prev;
  free_buckets_.push_back(bucket);
}

bool PrefixCache::lookup(std::size_t video) {
  VODREP_DCHECK(video < num_entries_, "PrefixCache: video out of range");
  const auto entry = static_cast<std::uint32_t>(video);
  const std::uint32_t from = bucket_of_[entry];
  if (from == kChain) {
    ++stats_.misses;
    return false;
  }
  // LRU keeps one bucket and only refreshes recency; LFU also moves the
  // entry up one frequency.  Either way it becomes its bucket's newest.
  const std::uint32_t to = policy_ == CacheEvictionPolicy::kLfu
                               ? bucket_after(from, buckets_[from].freq + 1)
                               : from;
  detach(entry);
  append(entry, to);
  if (to != from) drop_if_empty(from);
  ++stats_.hits;
  return true;
}

std::size_t PrefixCache::victim() const {
  const std::uint32_t lowest = buckets_[kChain].next;
  if (lowest == kChain) return num_entries_;
  return next_[head_node(lowest)];
}

void PrefixCache::insert(std::size_t video) {
  VODREP_DCHECK(video < num_entries_, "PrefixCache: video out of range");
  const auto entry = static_cast<std::uint32_t>(video);
  if (bucket_of_[entry] != kChain) return;
  const double bytes = entry_bytes_[entry];
  if (bytes > capacity_bytes_) return;  // can never fit; skip, no churn
  while (stats_.used_bytes + bytes > capacity_bytes_) {
    const std::size_t evicted = victim();
    if (evicted == num_entries_) {
      // Nothing resident: only eviction rounding residue keeps the fit test
      // failing.  Snap it to the exact empty state so long runs cannot
      // drift the accounting.
      stats_.used_bytes = 0.0;
      break;
    }
    const std::uint32_t bucket = bucket_of_[evicted];
    detach(static_cast<std::uint32_t>(evicted));
    bucket_of_[evicted] = kChain;
    drop_if_empty(bucket);
    stats_.used_bytes -= entry_bytes_[evicted];
    ++stats_.evictions;
  }
  append(entry, bucket_after(kChain, 1));
  stats_.used_bytes += bytes;
  ++stats_.insertions;
}

PrefixCachePolicy::PrefixCachePolicy(const Layout& layout,
                                     const SimConfig& config,
                                     const PrefixCacheOptions& options)
    : layout_(layout),
      config_(config),
      cache_enabled_(options.capacity_bytes > 0.0),
      prefix_fraction_(
          resolve_fractions(options, layout.assignment.size())),
      dispatcher_(layout, config.redirect, config.backbone_bps,
                  config.batching_window_sec, config.video_duration_sec,
                  config.batching_mode),
      cache_(options.eviction, options.capacity_bytes,
             prefix_bytes(prefix_fraction_, config_)) {}

void PrefixCachePolicy::bind(SimEngine& engine) {
  require(engine.num_servers() == config_.num_servers,
          "PrefixCachePolicy: engine/config server count mismatch");
  engine_ = &engine;
}

const CacheTierStats* PrefixCachePolicy::cache_stats() const {
  // Disabled caches expose no stats at all, so a zero-capacity run is
  // indistinguishable from ReplicatedPolicy (metrics series included).
  return cache_enabled_ ? &cache_.stats() : nullptr;
}

PolicyDecision PrefixCachePolicy::reject_for(std::size_t video,
                                             bool cache_hit) const {
  // Attribution mirrors ReplicatedPolicy: every holder down means no
  // replica could have served it regardless of the cache; otherwise the
  // binding constraint was origin bandwidth — a plain kNoBandwidth when the
  // prefix hit (only the suffix was blocked), the cache-specific
  // kCacheMissOriginBusy when the miss forced a full origin stream.
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

PolicyDecision PrefixCachePolicy::dispatch(const Request& request) {
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
        // The viewer stopped inside the cached prefix: served entirely from
        // the edge tier, no origin server involved (server stays -1).
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
    // With the cache disabled `hit` is false but the reasons must replay
    // ReplicatedPolicy's, which never emits kCacheMissOriginBusy.
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
    // A patching join holds its catch-up stream for the missed prefix only;
    // otherwise the origin holds bandwidth for the portion it streams —
    // the watched fraction on a miss, just the suffix after a prefix hit.
    const double held_sec =
        decision->batched ? decision->patch_duration_sec : origin_sec;
    engine_->schedule_departure(request.arrival_time + held_sec,
                                streams_.size() - 1);
  }
  return outcome;
}

void PrefixCachePolicy::on_departure(std::size_t stream) {
  const Stream& record = streams_[stream];
  // Streams on a crashed server were already dropped by the crash; their
  // departures still fire but release nothing.
  if (!engine_->server(record.server).failed()) {
    engine_->release(record.server, config_.stream_bitrate_bps);
  }
  if (record.via_backbone) {
    dispatcher_.release_backbone(config_.stream_bitrate_bps);
  }
}

std::size_t PrefixCachePolicy::on_crash(std::size_t server) {
  const std::size_t disrupted = engine_->fail(server);
  dispatcher_.on_server_failed(server);
  return disrupted;
}

}  // namespace vodrep
