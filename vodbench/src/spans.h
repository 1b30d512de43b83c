// In-memory span recorder for the benchmark's traced run.
//
// A span brackets one call from the benchmark into a vodrep layer.  It keeps
// its name, start and end (steady clock), the index of the enclosing span,
// and the workload-run id of the set-up, timed iteration or probe it belongs
// to.  Spans stay in memory while the workload runs; derived per-layer
// numbers (inclusive time, self time) are computed from them at the end, and
// the whole set can be written as Chrome trace JSON for Perfetto.
//
// The recorder is single-threaded: every public call the benchmark makes
// comes from the main thread, so there is no locking.  When disabled, opening
// a span costs one branch and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace vodbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a workload run is: one set-up, one timed iteration, a traced probe
/// outside the timed region, or the output checks.
enum class RunKind { kSetup, kTimed, kProbe, kCheck };

[[nodiscard]] const char* run_kind_name(RunKind kind);

struct Span {
  const char* name = "";  ///< static storage: a literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  int run = -1;     ///< workload-run id
};

class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts a workload run; spans opened until the next begin_run belong to
  /// it.  Returns the run id.
  int begin_run(RunKind kind);

  /// Opens a span (returns its index) or returns -1 when disabled.
  int open(const char* name);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] RunKind kind_of(int run) const {
    return run_kinds_[static_cast<std::size_t>(run)];
  }

  /// Per-span self time: duration minus the union of its children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Median over runs of `kind` that hold at least one span named `name` of
  /// the per-run total inclusive time of those spans, in seconds; 0 when no
  /// run of that kind has one.
  [[nodiscard]] double median_run_seconds(std::string_view name,
                                          RunKind kind) const;
  [[nodiscard]] bool has(std::string_view name, RunKind kind) const;

  /// Chrome trace JSON ("X" complete events, microsecond timestamps).
  void write_chrome_trace(std::ostream& os, const std::string& workload,
                          std::uint64_t seed) const;

 private:
  bool enabled_ = false;
  int run_ = -1;
  std::vector<RunKind> run_kinds_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide recorder the workloads write to.
SpanRecorder& recorder();

/// RAII span on recorder().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(recorder().open(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { recorder().close(index_); }

 private:
  int index_;
};

}  // namespace vodbench
