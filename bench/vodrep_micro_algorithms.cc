// E9 / Section 4 complexity claims: google-benchmark microbenchmarks of the
// replication and placement algorithms across catalogue sizes, validating
// the asymptotic claims (Adams O(M + N*C log M), Zipf-interval O(M log M),
// SLF placement, and the brute-force optimal used by the tests).
#include <benchmark/benchmark.h>

#include "src/core/adams_replication.h"
#include "src/core/bounds.h"
#include "src/core/classification_replication.h"
#include "src/core/round_robin_placement.h"
#include "src/core/slf_placement.h"
#include "src/core/zipf_interval_replication.h"
#include "src/workload/popularity.h"
#include "src/workload/sampler.h"
#include "src/workload/trace.h"

namespace {

using namespace vodrep;

constexpr std::size_t kServers = 8;
constexpr double kTheta = 0.75;
constexpr double kDegree = 1.4;

std::size_t budget_for(std::size_t m) {
  return static_cast<std::size_t>(kDegree * static_cast<double>(m));
}

void BM_AdamsReplication(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const AdamsReplication adams;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adams.replicate(popularity, kServers,
                                             budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_AdamsReplication)->Range(64, 16384)->Complexity(benchmark::oNLogN);

void BM_ZipfIntervalReplication(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const ZipfIntervalReplication zipf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.replicate(popularity, kServers,
                                            budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_ZipfIntervalReplication)
    ->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_ClassificationReplication(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const ClassificationReplication classification;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classification.replicate(popularity, kServers, budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_ClassificationReplication)
    ->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

// SLF over M at three cluster sizes.  SLF sorts the servers once per round,
// so it costs O(M log M + R log N): at fixed M its time grows only with
// log N, where a per-replica scan over all servers would grow with N.
void BM_SlfPlacement(benchmark::State& state, std::size_t servers) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, servers, budget_for(m));
  const std::size_t capacity = (budget_for(m) + servers - 1) / servers;
  const SmallestLoadFirstPlacement slf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(slf.place(plan, popularity, servers, capacity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK_CAPTURE(BM_SlfPlacement, servers_16, 16)
    ->Range(64, 8192)
    ->Complexity();
BENCHMARK_CAPTURE(BM_SlfPlacement, servers_256, 256)
    ->Range(64, 8192)
    ->Complexity();
BENCHMARK_CAPTURE(BM_SlfPlacement, servers_1024, 1024)
    ->Range(64, 8192)
    ->Complexity();

void BM_RoundRobinPlacement(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  const AdamsReplication adams;
  const auto plan = adams.replicate(popularity, kServers, budget_for(m));
  const std::size_t capacity = (budget_for(m) + kServers - 1) / kServers;
  const RoundRobinPlacement rr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rr.place(plan, popularity, kServers, capacity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_RoundRobinPlacement)->Range(64, 8192)->Complexity();

void BM_BruteForceOptimalMaxWeight(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimal_max_weight(popularity, kServers, budget_for(m)));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_BruteForceOptimalMaxWeight)->Range(64, 4096)->Complexity();

void BM_TraceGeneration(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  TraceSpec spec;
  spec.arrival_rate = 40.0 / 60.0;
  spec.horizon = 90.0 * 60.0;
  spec.popularity = zipf_popularity(m, kTheta);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_trace(rng, spec));
  }
}
BENCHMARK(BM_TraceGeneration)->Range(64, 16384);

void BM_AliasSamplerBuild(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto popularity = zipf_popularity(m, kTheta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscreteSampler(popularity));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(BM_AliasSamplerBuild)->Range(64, 65536)->Complexity(benchmark::oN);

}  // namespace

BENCHMARK_MAIN();
