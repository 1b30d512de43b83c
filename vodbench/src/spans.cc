#include "spans.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "src/obs/json_lite.h"

namespace vodbench {

const char* run_kind_name(RunKind kind) {
  switch (kind) {
    case RunKind::kSetup: return "setup";
    case RunKind::kTimed: return "timed";
    case RunKind::kProbe: return "probe";
    case RunKind::kCheck: return "check";
  }
  return "unknown";
}

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

int SpanRecorder::begin_run(RunKind kind) {
  run_kinds_.push_back(kind);
  run_ = static_cast<int>(run_kinds_.size()) - 1;
  return run_;
}

int SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  // Children of one parent never overlap (single thread, strict nesting), so
  // the covered part of a parent is the plain sum of its children.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool SpanRecorder::has(std::string_view name, RunKind kind) const {
  return std::any_of(spans_.begin(), spans_.end(), [&](const Span& span) {
    return span.run >= 0 && run_kinds_[static_cast<std::size_t>(span.run)] == kind &&
           name == span.name;
  });
}

double SpanRecorder::median_run_seconds(std::string_view name,
                                        RunKind kind) const {
  std::map<int, std::int64_t> per_run;
  for (const Span& span : spans_) {
    if (span.run < 0 || run_kinds_[static_cast<std::size_t>(span.run)] != kind ||
        name != span.name) {
      continue;
    }
    per_run[span.run] += span.end_ns - span.start_ns;
  }
  if (per_run.empty()) return 0.0;
  std::vector<std::int64_t> totals;
  totals.reserve(per_run.size());
  for (const auto& [run, total] : per_run) totals.push_back(total);
  std::sort(totals.begin(), totals.end());
  const std::size_t n = totals.size();
  const double median =
      n % 2 == 1 ? static_cast<double>(totals[n / 2])
                 : 0.5 * static_cast<double>(totals[n / 2 - 1] + totals[n / 2]);
  return median * 1e-9;
}

void SpanRecorder::write_chrome_trace(std::ostream& os,
                                      const std::string& workload,
                                      std::uint64_t seed) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":";
  vodrep::obs::write_json_string(os, workload);
  os << ",\"seed\":" << seed << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) os << ",";
    os << "{\"name\":";
    vodrep::obs::write_json_string(os, span.name);
    os << ",\"cat\":\"" << run_kind_name(run_kinds_[static_cast<std::size_t>(span.run)])
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(span.start_ns - origin) * 1e-3
       << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
       << ",\"run\":" << span.run << "}}";
  }
  os << "]}\n";
}

}  // namespace vodbench
