#include "src/core/slf_placement.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "src/audit/audit.h"
#include "src/util/check.h"
#include "src/util/error.h"

namespace vodrep {
namespace {

struct PendingReplica {
  std::size_t video;
  double weight;
};

constexpr std::size_t kNoVideo = std::numeric_limits<std::size_t>::max();

}  // namespace

Layout SmallestLoadFirstPlacement::place(
    const ReplicationPlan& plan, const std::vector<double>& popularity,
    std::size_t num_servers, std::size_t capacity_per_server) const {
  return place_traced(plan, popularity, num_servers, capacity_per_server,
                      nullptr);
}

Layout SmallestLoadFirstPlacement::place_traced(
    const ReplicationPlan& plan, const std::vector<double>& popularity,
    std::size_t num_servers, std::size_t capacity_per_server,
    std::vector<Step>* steps) const {
  check_placement_inputs(plan, popularity, num_servers, capacity_per_server);

  const std::vector<double> weights = plan.weights(popularity);
  Layout layout;
  layout.assignment.resize(plan.replicas.size());

  // Steps 1-2 of Algorithm 1: all replicas, grouped by video, groups in
  // non-increasing weight order.
  std::deque<PendingReplica> pending;
  for (std::size_t video : videos_by_weight(plan, popularity)) {
    for (std::size_t k = 0; k < plan.replicas[video]; ++k) {
      pending.push_back(PendingReplica{video, weights[video]});
    }
  }

  std::vector<double> loads(num_servers, 0.0);
  std::vector<std::size_t> stored(num_servers, 0);

  // host_stamp[s] == stamped_video exactly when server s holds a replica of
  // stamped_video, the video of the replica being placed.  Stamps are
  // refreshed from the video's server list whenever that video changes, so
  // "does s host v" is one load instead of a search.
  std::vector<std::size_t> host_stamp(num_servers, kNoVideo);
  std::size_t stamped_video = kNoVideo;

  // Servers with storage left, in (load, index) order as of the round
  // start, and which positions of that order this round has used.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(num_servers);
  std::vector<bool> used_this_round;

  std::size_t round = 0;
  while (!pending.empty()) {
    const std::size_t take = std::min<std::size_t>(num_servers, pending.size());
    std::deque<PendingReplica> deferred;
    std::size_t placed_this_round = 0;

    // A round uses each server at most once, so the load and storage of a
    // server still unused in this round are frozen until the round ends.
    // One sort therefore serves the whole round: the first feasible server
    // in (load, index) order is the least-loaded one, ties going to the
    // lowest index.
    order.clear();
    for (std::size_t s = 0; s < num_servers; ++s) {
      if (stored[s] < capacity_per_server) order.emplace_back(loads[s], s);
    }
    std::sort(order.begin(), order.end());
    used_this_round.assign(order.size(), false);
    std::size_t cursor = 0;  // every position before it is used

    for (std::size_t n = 0; n < take; ++n) {
      const PendingReplica replica = pending.front();
      pending.pop_front();
      std::vector<std::size_t>& hosts = layout.assignment[replica.video];
      if (replica.video != stamped_video) {
        for (std::size_t s : hosts) host_stamp[s] = replica.video;
        stamped_video = replica.video;
      }

      while (cursor < order.size() && used_this_round[cursor]) ++cursor;
      std::size_t pos = cursor;
      while (pos < order.size() &&
             (used_this_round[pos] ||
              host_stamp[order[pos].second] == replica.video)) {
        ++pos;
      }
      if (pos == order.size()) {
        deferred.push_back(replica);  // retried at the head of the next round
        continue;
      }
      const std::size_t best = order[pos].second;
      used_this_round[pos] = true;
      host_stamp[best] = replica.video;
      ++stored[best];
      loads[best] += replica.weight;
      if (hosts.empty()) hosts.reserve(plan.replicas[replica.video]);
      hosts.push_back(best);
      ++placed_this_round;
      if (steps != nullptr) {
        steps->push_back(
            Step{replica.video, best, replica.weight, loads[best], round});
      }
    }

    if (placed_this_round == 0) {
      // Every candidate replica was infeasible on every server: the
      // distinctness constraint cannot be satisfied with remaining storage.
      throw InfeasibleError(
          "slf placement: no feasible server in round " +
          std::to_string(round) + " for the " +
          std::to_string(deferred.size() + pending.size()) +
          " replicas left");
    }
    // Deferred replicas are the heaviest remaining; keep them at the front.
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      pending.push_front(*it);
    }
    ++round;
  }
#if VODREP_CONTRACTS_ENABLED
  {
    LayoutAuditor::Limits limits;
    limits.num_servers = num_servers;
    limits.capacity_per_server = capacity_per_server;
    const AuditReport report =
        LayoutAuditor(limits).audit(layout, &plan, &popularity);
    VODREP_DCHECK(report.ok(), report.summary());
  }
#endif
  return layout;
}

}  // namespace vodrep
