// The four benchmark workloads.  Each one drives the public vodrep API in
// the order vodrep_plan calls it, with spans (spans.h) around every call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/core/layout.h"

namespace vodbench {

struct WorkloadConfig {
  std::string name;
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< worker threads: min(4, usable CPUs)
  bool tiny = false;        ///< self-test sizes instead of the full ones
  std::string work_dir;     ///< scratch files (layouts, reports) go here
};

/// Metric values keyed by name, each with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

[[nodiscard]] double median(std::vector<double> values);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs.  Called once per instance.
  virtual void setup() = 0;
  /// One timed region.  `traced` says whether spans are being recorded;
  /// workloads that read the run profiler arm it only then.
  virtual void iterate(bool traced) = 0;
  /// Checks the outputs of the last iterate() (`first`: the first
  /// iteration, which gets the full audits; later ones are compared with
  /// it).  Returns one line per problem; empty means correct.
  virtual std::vector<std::string> check(bool first) = 0;
  /// Quality of the output, exact at a fixed seed: the Eq. 2 and Eq. 3
  /// imbalance and the Eq. 1 objective on every workload, plus the rejection
  /// rate, cache hit ratio or mean bit rate where the workload has one.
  virtual void quality(MetricMap& values) const = 0;
  /// Traced run only: per-layer counters and the probes that run outside
  /// the timed region; `notes` gets the probes' raw timings.  Returns
  /// problems found by the probes' own checks.
  virtual std::vector<std::string> layer_metrics(MetricMap& metrics,
                                                 MetricMap& notes) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const WorkloadConfig& config);

/// The benchmark's layout check: LayoutAuditor on `layout` against `plan`
/// and `popularity`, within `capacity` replica slots per server.  Exposed
/// so the self-test can show that a broken layout fails it.
[[nodiscard]] vodrep::AuditReport audit_layout(
    const vodrep::Layout& layout, const vodrep::ReplicationPlan& plan,
    const std::vector<double>& popularity, std::size_t num_servers,
    std::size_t capacity);

}  // namespace vodbench
