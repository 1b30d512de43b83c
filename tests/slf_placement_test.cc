#include "src/core/slf_placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "src/core/adams_replication.h"
#include "src/core/bounds.h"
#include "src/core/objective.h"
#include "src/core/round_robin_placement.h"
#include "src/core/zipf_interval_replication.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

TEST(SlfPlacement, ProducesValidLayouts) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  for (double theta : {0.25, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(60, theta);
    const auto plan = adams.replicate(popularity, 8, 96);
    const Layout layout = slf.place(plan, popularity, 8, 12);
    EXPECT_NO_THROW(layout.validate(plan, 8, 12)) << theta;
  }
}

TEST(SlfPlacement, HeaviestReplicaGoesToServerZeroFirst) {
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1};
  const auto popularity = normalized_popularity({5.0, 3.0, 2.0});
  const SmallestLoadFirstPlacement slf;
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  const Layout layout = slf.place_traced(plan, popularity, 3, 1, &steps);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].video, 0u);
  EXPECT_EQ(steps[0].server, 0u);
  EXPECT_EQ(steps[1].video, 1u);
  EXPECT_EQ(steps[1].server, 1u);
  EXPECT_EQ(steps[2].video, 2u);
  EXPECT_EQ(steps[2].server, 2u);
  (void)layout;
}

TEST(SlfPlacement, SecondRoundPrefersLeastLoadedServer) {
  // Round 1 fills servers with weights 0.4, 0.35, 0.25 -> server 2 is the
  // least loaded, so round 2's heaviest replica must land there.
  ReplicationPlan plan;
  plan.replicas = {1, 1, 1, 1};
  const auto popularity = normalized_popularity({0.4, 0.35, 0.25, 0.0001});
  const SmallestLoadFirstPlacement slf;
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  (void)slf.place_traced(plan, popularity, 3, 2, &steps);
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[3].video, 3u);
  EXPECT_EQ(steps[3].server, 2u);
  EXPECT_EQ(steps[3].round, 1u);
}

TEST(SlfPlacement, AvoidsServersAlreadyHostingTheVideo) {
  // The paper's Figure 3 situation: the least-loaded server already holds a
  // replica of the video, so the replica goes to the next smallest load.
  ReplicationPlan plan;
  plan.replicas = {2, 1, 1};
  // Weights: v0 -> 0.3 each (two replicas), v1 -> 0.25, v2 -> 0.15.
  const auto popularity = normalized_popularity({0.6, 0.25, 0.15});
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 2, 2);
  // v0's two replicas must be on distinct servers despite load preferences.
  auto servers = layout.assignment[0];
  std::sort(servers.begin(), servers.end());
  EXPECT_EQ(servers, (std::vector<std::size_t>{0, 1}));
}

TEST(SlfPlacement, EachRoundUsesEachServerAtMostOnce) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const auto popularity = zipf_popularity(40, 0.75);
  const auto plan = adams.replicate(popularity, 8, 64);
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  (void)slf.place_traced(plan, popularity, 8, 8, &steps);
  std::map<std::size_t, std::set<std::size_t>> servers_by_round;
  for (const auto& step : steps) {
    EXPECT_TRUE(servers_by_round[step.round].insert(step.server).second)
        << "server " << step.server << " used twice in round " << step.round;
  }
}

TEST(SlfPlacement, BeatsOrMatchesRoundRobinOnExpectedImbalance) {
  const ZipfIntervalReplication zipf;
  const SmallestLoadFirstPlacement slf;
  const RoundRobinPlacement rr;
  for (double theta : {0.25, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(300, theta);
    const auto plan = zipf.replicate(popularity, 8, 360);
    const auto slf_loads =
        slf.place(plan, popularity, 8, 45).expected_loads(popularity, 8);
    const auto rr_loads =
        rr.place(plan, popularity, 8, 45).expected_loads(popularity, 8);
    EXPECT_LE(imbalance_max_relative(slf_loads),
              imbalance_max_relative(rr_loads) + 1e-12)
        << "theta=" << theta;
  }
}

TEST(SlfPlacement, SpreadWithinTheoremBound) {
  // Theorem 4.2 on the paper's own scenario sizes.
  const ZipfIntervalReplication zipf;
  const SmallestLoadFirstPlacement slf;
  for (double theta : {0.271, 0.5, 0.75, 1.0}) {
    const auto popularity = zipf_popularity(300, theta);
    for (std::size_t budget : {360u, 420u, 480u}) {
      const auto plan = zipf.replicate(popularity, 8, budget);
      const std::size_t cap = (budget + 7) / 8;
      const auto loads =
          slf.place(plan, popularity, 8, cap).expected_loads(popularity, 8);
      EXPECT_LE(load_spread(loads),
                slf_spread_bound(plan, popularity) + 1e-12)
          << "theta=" << theta << " budget=" << budget;
    }
  }
}

TEST(SlfPlacement, TightDistinctnessInstanceIsPlaced) {
  // Capacity exactly one slot per server: a 2-replica video must use both
  // servers — the deferral machinery has zero slack and must still succeed.
  ReplicationPlan plan;
  plan.replicas = {2};
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, {1.0}, 2, 1);
  EXPECT_NO_THROW(layout.validate(plan, 2, 1));
}

TEST(SlfPlacement, ExactlyFullClusterIsPlaced) {
  // total replicas == N * capacity: every slot used, no wiggle room.
  const AdamsReplication adams;
  const auto popularity = zipf_popularity(12, 0.9);
  const auto plan = adams.replicate(popularity, 4, 16);
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 4, 4);
  EXPECT_NO_THROW(layout.validate(plan, 4, 4));
  for (std::size_t count : layout.replicas_per_server(4)) {
    EXPECT_EQ(count, 4u);
  }
}

TEST(SlfPlacement, HandlesFullReplication) {
  ReplicationPlan plan;
  plan.replicas = {4, 4, 4};
  const auto popularity = normalized_popularity({0.5, 0.3, 0.2});
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 4, 3);
  EXPECT_NO_THROW(layout.validate(plan, 4, 3));
  // Full replication balances perfectly.
  const auto loads = layout.expected_loads(popularity, 4);
  EXPECT_NEAR(load_spread(loads), 0.0, 1e-12);
}

TEST(SlfPlacement, StorageInfeasibilityNamesTheShortfall) {
  ReplicationPlan plan;
  plan.replicas = {2, 2, 1};
  const auto popularity = normalized_popularity({0.5, 0.3, 0.2});
  const SmallestLoadFirstPlacement slf;
  try {
    (void)slf.place(plan, popularity, 2, 2);
    FAIL() << "5 replicas cannot fit on 2 servers of capacity 2";
  } catch (const InfeasibleError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("5 replicas"), std::string::npos) << what;
    EXPECT_NE(what.find("2 x 2 = 4"), std::string::npos) << what;
  }
}

TEST(SlfPlacement, HugeCapacityDoesNotOverflowTheStorageCheck) {
  // N * C wraps to 0 here; the storage check must not see 2 > 0.
  ReplicationPlan plan;
  plan.replicas = {1, 1};
  const auto popularity = normalized_popularity({0.6, 0.4});
  const std::size_t capacity =
      std::numeric_limits<std::size_t>::max() / 2 + 1;
  const SmallestLoadFirstPlacement slf;
  const Layout layout = slf.place(plan, popularity, 2, capacity);
  EXPECT_NO_THROW(layout.validate(plan, 2, capacity));
}

TEST(SlfPlacement, DeterministicAcrossCalls) {
  const AdamsReplication adams;
  const SmallestLoadFirstPlacement slf;
  const auto popularity = zipf_popularity(50, 0.75);
  const auto plan = adams.replicate(popularity, 8, 75);
  const Layout a = slf.place(plan, popularity, 8, 10);
  const Layout b = slf.place(plan, popularity, 8, 10);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace vodrep
