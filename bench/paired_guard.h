// Paired, interleaved overhead verdict for vodrep_sa_hotpath's <3%
// disabled-obs guard.
//
// The guard compares two near-identical loops — the library's in-place
// Metropolis loop with its obs hooks compiled in but disabled, and a
// hook-free copy — against a bound of a few percent, on shared machines
// whose speed drifts by more than that within seconds.  Quick mode's
// anneal takes well under a millisecond, and rating each loop by its
// fastest run let the drift and one lucky run decide: the same code read
// anywhere from -9% to +26%.
//
// Here each sample times one path for at least kSampleSec of back-to-back
// runs, and the two paths alternate in ABBA order, so a linear drift cancels
// over each two pairs.  Each pair yields one overhead figure,
// 100 * (1 - candidate rate / baseline rate).  The verdict is on the median
// pair, with a distribution-free 95% confidence interval from the binomial
// order statistics: one scheduler hiccup moves one order statistic, not the
// estimate.  The guard passes once the interval lies wholly below kBoundPct
// and fails once it lies wholly above it.  While it straddles the bound the
// guard takes more pairs; if it still straddles after kMaxPairs, it fails.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace vodrep::bench {

/// Minimum wall time of one sample, seconds.
inline constexpr double kSampleSec = 0.1;
/// Pairs before the first verdict.
inline constexpr std::size_t kMinPairs = 8;
/// Pairs after which an interval still straddling the bound fails.
inline constexpr std::size_t kMaxPairs = 100;
/// The overhead budget, percent.
inline constexpr double kBoundPct = 3.0;

struct PairedGuardResult {
  double overhead_pct = 0.0;  ///< median of the per-pair overheads
  double ci_low_pct = 0.0;    ///< 95% interval of that median
  double ci_high_pct = 0.0;
  double baseline_rate = 0.0;  ///< median baseline sample, units/s
  double candidate_rate = 0.0;
  std::size_t pairs = 0;
  bool pass = false;
};

/// Units per second of `run` over back-to-back calls lasting at least
/// kSampleSec; each call returns the work units (events, moves) it did.
template <typename Fn>
double sample_rate(Fn&& run) {
  double units = 0.0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    units += static_cast<double>(run());
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < kSampleSec);
  return units / elapsed;
}

/// The 1-based rank k of the lower end of the distribution-free 95%
/// interval [x_(k), x_(n+1-k)] for the median of n samples: the largest k
/// with P(Binomial(n, 1/2) < k) <= 2.5%.  0 when n is too small (< 6).
inline std::size_t median_ci_rank(std::size_t n) {
  double pmf = std::pow(0.5, static_cast<double>(n));  // P(B = 0)
  double cdf = 0.0;
  std::size_t k = 0;
  for (std::size_t j = 0; j < n; ++j) {
    cdf += pmf;  // P(B <= j)
    if (cdf > 0.025) break;
    k = j + 1;
    pmf = pmf * static_cast<double>(n - j) / static_cast<double>(j + 1);
  }
  return k;
}

inline double median_of_sorted(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/// Runs the paired samples of `baseline` and `candidate` until the 95%
/// interval of the median overhead clears kBoundPct one way or the other
/// (see the file comment).
template <typename BaselineFn, typename CandidateFn>
PairedGuardResult paired_overhead_guard(BaselineFn&& baseline,
                                        CandidateFn&& candidate) {
  std::vector<double> overheads;
  std::vector<double> baseline_rates;
  std::vector<double> candidate_rates;
  PairedGuardResult result;
  for (std::size_t pair = 0; pair < kMaxPairs; ++pair) {
    double base = 0.0;
    double cand = 0.0;
    if (pair % 2 == 0) {
      base = sample_rate(baseline);
      cand = sample_rate(candidate);
    } else {
      cand = sample_rate(candidate);
      base = sample_rate(baseline);
    }
    overheads.push_back(100.0 * (1.0 - cand / base));
    baseline_rates.push_back(base);
    candidate_rates.push_back(cand);

    std::vector<double> sorted = overheads;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t k = median_ci_rank(n);
    result.pairs = n;
    result.overhead_pct = median_of_sorted(sorted);
    if (k == 0) continue;
    result.ci_low_pct = sorted[k - 1];
    result.ci_high_pct = sorted[n - k];
    if (n < kMinPairs) continue;
    if (result.ci_high_pct < kBoundPct) {
      result.pass = true;
      break;
    }
    if (result.ci_low_pct > kBoundPct) break;
  }
  std::sort(baseline_rates.begin(), baseline_rates.end());
  std::sort(candidate_rates.begin(), candidate_rates.end());
  result.baseline_rate = median_of_sorted(baseline_rates);
  result.candidate_rate = median_of_sorted(candidate_rates);
  return result;
}

}  // namespace vodrep::bench
