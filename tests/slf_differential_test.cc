// Differential tests pinning SmallestLoadFirstPlacement to the seed
// implementation: a frozen, verbatim copy of the seed's O(R·N) placement
// loop (every replica scans all N servers, and each candidate does a linear
// search of the video's hosts) is replayed against the library on seeded
// random instances.  Every Step (video, server, round, bit-equal weight and
// server load), every layout, and the exception type on infeasible inputs
// must agree.  The library sorts the servers once per round instead; the
// two are equivalent because the loads of servers unused in a round are
// frozen for the rest of that round.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/core/adams_replication.h"
#include "src/core/placement.h"
#include "src/core/slf_placement.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

using Step = SmallestLoadFirstPlacement::Step;

// ---------------------------------------------------------------------------
// Frozen seed reference, copied verbatim from the seed's place_traced.
// ---------------------------------------------------------------------------

struct SeedPendingReplica {
  std::size_t video;
  double weight;
};

Layout seed_slf_place_traced(const ReplicationPlan& plan,
                             const std::vector<double>& popularity,
                             std::size_t num_servers,
                             std::size_t capacity_per_server,
                             std::vector<Step>* steps) {
  check_placement_inputs(plan, popularity, num_servers, capacity_per_server);

  const std::vector<double> weights = plan.weights(popularity);
  Layout layout;
  layout.assignment.resize(plan.replicas.size());

  std::deque<SeedPendingReplica> pending;
  for (std::size_t video : videos_by_weight(plan, popularity)) {
    for (std::size_t k = 0; k < plan.replicas[video]; ++k) {
      pending.push_back(SeedPendingReplica{video, weights[video]});
    }
  }

  std::vector<double> loads(num_servers, 0.0);
  std::vector<std::size_t> stored(num_servers, 0);

  auto hosts = [&](std::size_t server, std::size_t video) {
    const auto& servers = layout.assignment[video];
    return std::find(servers.begin(), servers.end(), server) != servers.end();
  };

  std::size_t round = 0;
  while (!pending.empty()) {
    const std::size_t take = std::min<std::size_t>(num_servers, pending.size());
    std::vector<bool> used_this_round(num_servers, false);
    std::deque<SeedPendingReplica> deferred;
    std::size_t placed_this_round = 0;

    for (std::size_t n = 0; n < take; ++n) {
      const SeedPendingReplica replica = pending.front();
      pending.pop_front();

      std::size_t best = num_servers;
      double best_load = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < num_servers; ++s) {
        if (used_this_round[s] || stored[s] >= capacity_per_server ||
            hosts(s, replica.video)) {
          continue;
        }
        if (loads[s] < best_load) {
          best_load = loads[s];
          best = s;
        }
      }
      if (best == num_servers) {
        deferred.push_back(replica);
        continue;
      }
      used_this_round[best] = true;
      ++stored[best];
      loads[best] += replica.weight;
      layout.assignment[replica.video].push_back(best);
      ++placed_this_round;
      if (steps != nullptr) {
        steps->push_back(
            Step{replica.video, best, replica.weight, loads[best], round});
      }
    }

    if (placed_this_round == 0) {
      throw InfeasibleError(
          "slf placement: no feasible server for the remaining replicas");
    }
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      pending.push_front(*it);
    }
    ++round;
  }
  return layout;
}

// ---------------------------------------------------------------------------
// Random instances.
// ---------------------------------------------------------------------------

enum class CapacityKind {
  kSlack,      // ceil(R/N) plus 0-2 spare slots per server
  kExactFit,   // replicas topped up until R == N·C
  kOneShort,   // ceil(R/N) - 1: fails the storage check
  kTight,      // ceil(R/N) with half the videos at r_i = N
};

struct Instance {
  ReplicationPlan plan;
  std::vector<double> popularity;
  std::size_t servers = 0;
  std::size_t capacity = 0;
};

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

Instance random_instance(Rng& rng, CapacityKind kind) {
  Instance instance;
  // A quarter of the instances have more than 16 servers, where std::sort
  // stops using insertion sort and so no longer keeps equal loads in index
  // order by accident.
  instance.servers = rng.bernoulli(0.25) ? 17 + rng.uniform_index(48)
                                         : 1 + rng.uniform_index(12);
  const std::size_t n = instance.servers;
  const std::size_t m = 1 + rng.uniform_index(40);

  // Half the instances draw small integer weights, so equal popularities
  // (and with equal replica counts, equal per-replica weights) are common.
  const bool ties = rng.bernoulli(0.5);
  std::vector<double> raw(m);
  for (double& w : raw) {
    w = ties ? static_cast<double>(1 + rng.uniform_index(3))
             : rng.uniform(0.01, 1.0);
  }
  instance.popularity = normalized_popularity(raw);

  const double full_share = kind == CapacityKind::kTight ? 0.5 : 0.2;
  instance.plan.replicas.resize(m);
  for (std::size_t& r : instance.plan.replicas) {
    r = rng.bernoulli(full_share) ? n : 1 + rng.uniform_index(n);
  }

  const std::size_t total = instance.plan.total_replicas();
  switch (kind) {
    case CapacityKind::kSlack:
      instance.capacity = ceil_div(total, n) + rng.uniform_index(3);
      break;
    case CapacityKind::kExactFit: {
      instance.capacity = ceil_div(total, n);
      // Top up random videos below r_i = N until every slot is used; this
      // always terminates because M·N >= N·ceil(R/N).
      while (instance.plan.total_replicas() < n * instance.capacity) {
        std::size_t& r = instance.plan.replicas[rng.uniform_index(m)];
        if (r < n) ++r;
      }
      break;
    }
    case CapacityKind::kOneShort:
      instance.capacity = ceil_div(total, n) - 1;
      break;
    case CapacityKind::kTight:
      instance.capacity = ceil_div(total, n);
      break;
  }
  return instance;
}

enum class Outcome { kPlaced, kInfeasible, kInvalidArgument, kOtherError };

struct PlacementRun {
  Outcome outcome = Outcome::kOtherError;
  std::optional<Layout> layout;
  std::vector<Step> steps;
};

template <typename PlaceFn>
PlacementRun run_placement(PlaceFn&& place) {
  PlacementRun run;
  try {
    run.layout = place(&run.steps);
    run.outcome = Outcome::kPlaced;
  } catch (const InfeasibleError&) {
    run.outcome = Outcome::kInfeasible;
  } catch (const InvalidArgumentError&) {
    run.outcome = Outcome::kInvalidArgument;
  } catch (...) {
    run.outcome = Outcome::kOtherError;
  }
  return run;
}

void expect_same_steps(const std::vector<Step>& seed,
                       const std::vector<Step>& current,
                       const std::string& where) {
  ASSERT_EQ(seed.size(), current.size()) << where;
  for (std::size_t k = 0; k < seed.size(); ++k) {
    EXPECT_EQ(seed[k].video, current[k].video) << where << " step " << k;
    EXPECT_EQ(seed[k].server, current[k].server) << where << " step " << k;
    EXPECT_EQ(seed[k].round, current[k].round) << where << " step " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seed[k].weight),
              std::bit_cast<std::uint64_t>(current[k].weight))
        << where << " step " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seed[k].server_load_after),
              std::bit_cast<std::uint64_t>(current[k].server_load_after))
        << where << " step " << k;
  }
}

// True when some replica was placed out of its Algorithm-1 order, i.e. it
// was deferred to a later round at least once.
bool has_deferral(const Instance& instance, const std::vector<Step>& steps) {
  std::vector<std::size_t> expected;
  for (std::size_t video :
       videos_by_weight(instance.plan, instance.popularity)) {
    expected.insert(expected.end(), instance.plan.replicas[video], video);
  }
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].video != expected[k]) return true;
  }
  return false;
}

bool has_weight_tie(const Instance& instance) {
  std::vector<double> w = instance.plan.weights(instance.popularity);
  std::sort(w.begin(), w.end());
  return std::adjacent_find(w.begin(), w.end()) != w.end();
}

TEST(SlfDifferential, MatchesSeedLoopOnRandomInstances) {
  constexpr std::size_t kInstancesPerKind = 600;
  const SmallestLoadFirstPlacement slf;
  Rng rng(20021);

  std::size_t placed = 0;
  std::size_t deferrals = 0;
  std::size_t ties = 0;
  std::size_t full_replication = 0;
  std::size_t exact_fit = 0;
  std::size_t storage_infeasible = 0;
  std::size_t round_infeasible = 0;

  for (CapacityKind kind :
       {CapacityKind::kSlack, CapacityKind::kExactFit,
        CapacityKind::kOneShort, CapacityKind::kTight}) {
    for (std::size_t i = 0; i < kInstancesPerKind; ++i) {
      const Instance instance = random_instance(rng, kind);
      const std::string where =
          "kind " + std::to_string(static_cast<int>(kind)) + " instance " +
          std::to_string(i);
      const PlacementRun seed = run_placement([&](std::vector<Step>* steps) {
        return seed_slf_place_traced(instance.plan, instance.popularity,
                                     instance.servers, instance.capacity,
                                     steps);
      });
      const PlacementRun current = run_placement([&](std::vector<Step>* steps) {
        return slf.place_traced(instance.plan, instance.popularity,
                                instance.servers, instance.capacity, steps);
      });

      ASSERT_EQ(seed.outcome, current.outcome) << where;
      ASSERT_NE(seed.outcome, Outcome::kOtherError) << where;
      ASSERT_NE(seed.outcome, Outcome::kInvalidArgument) << where;

      const std::size_t total = instance.plan.total_replicas();
      const bool fits = total <= instance.servers * instance.capacity;
      if (seed.outcome == Outcome::kInfeasible) {
        ++(fits ? round_infeasible : storage_infeasible);
        continue;
      }
      ++placed;
      expect_same_steps(seed.steps, current.steps, where);
      EXPECT_EQ(seed.layout->assignment, current.layout->assignment) << where;
      if (has_deferral(instance, seed.steps)) ++deferrals;
      if (has_weight_tie(instance)) ++ties;
      if (total == instance.servers * instance.capacity) ++exact_fit;
      if (std::count(instance.plan.replicas.begin(),
                     instance.plan.replicas.end(), instance.servers) > 0) {
        ++full_replication;
      }
    }
  }

  // The instance mix must reach every regime the equivalence argument
  // depends on, or the differential proves less than it claims.
  EXPECT_GE(placed, 1000u);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(full_replication, 0u);
  EXPECT_GT(exact_fit, 0u);
  EXPECT_GT(storage_infeasible, 0u);
  // Not even the exact-fit and r_i = N instances defer a replica or throw
  // mid-placement, in either implementation.  With one capacity for every
  // server and r_i <= N, every round but the last places N replicas, so all
  // servers enter a round with the same stored count (below C), and a
  // video's replicas span at most two consecutive rounds, so a replica always
  // has a free non-host server.  The deferral branch and the round error are
  // defensive; this pins that they stay unreachable through the public API.
  EXPECT_EQ(deferrals, 0u);
  EXPECT_EQ(round_infeasible, 0u);
}

TEST(SlfDifferential, MatchesSeedLoopAtLibraryScale) {
  constexpr std::size_t kVideos = 50000;
  constexpr std::size_t kServers = 256;
  const auto popularity = zipf_popularity(kVideos, 0.75);
  const std::size_t budget = kVideos * 6 / 5;
  const auto plan = AdamsReplication().replicate(popularity, kServers, budget);
  const std::size_t capacity = ceil_div(budget, kServers);

  const Layout seed =
      seed_slf_place_traced(plan, popularity, kServers, capacity, nullptr);
  const Layout current =
      SmallestLoadFirstPlacement().place(plan, popularity, kServers, capacity);
  EXPECT_TRUE(seed.assignment == current.assignment);
}

}  // namespace
}  // namespace vodrep
