#include "src/core/placement.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "src/util/error.h"
#include "src/workload/popularity.h"

namespace vodrep {

void check_placement_inputs(const ReplicationPlan& plan,
                            const std::vector<double>& popularity,
                            std::size_t num_servers,
                            std::size_t capacity_per_server) {
  require(num_servers >= 1, "placement: need at least one server");
  require(plan.replicas.size() == popularity.size(),
          "placement: plan/popularity size mismatch");
  require(is_popularity_vector(popularity),
          "placement: popularity must be normalized and non-increasing");
  for (std::size_t r : plan.replicas) {
    require(r >= 1, "placement: every video needs at least one replica");
    require(r <= num_servers, "placement: r_i exceeds server count (Eq. 7)");
  }
  // Compared as ceil(total / N) > C, so a huge capacity cannot overflow
  // N * C; when the check fails, N * C < total and the product is safe.
  const std::size_t total = plan.total_replicas();
  if ((total + num_servers - 1) / num_servers > capacity_per_server) {
    throw InfeasibleError(
        "placement: plan does not fit cluster storage: " +
        std::to_string(total) + " replicas > N x capacity = " +
        std::to_string(num_servers) + " x " +
        std::to_string(capacity_per_server) + " = " +
        std::to_string(num_servers * capacity_per_server));
  }
}

std::vector<std::size_t> videos_by_weight(
    const ReplicationPlan& plan, const std::vector<double>& popularity) {
  const std::vector<double> w = plan.weights(popularity);
  std::vector<std::size_t> order(plan.replicas.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  return order;
}

}  // namespace vodrep
