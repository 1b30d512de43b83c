// vodbench: runs one benchmark workload against the vodrep library and
// prints its metrics.  Normally started by run.py, which builds it first:
//
//   vodbench --workload plan_library --seed 1 --seconds 15 --trace 0
//
// The run sets the workload up several times (setup_s is the median), then
// repeats the workload's timed region until --seconds have passed (at least
// three times; wall_s is the median), checking every iteration's outputs.
// With --trace 1 every other iteration records spans around each call into
// the library, and the per-layer metrics come from those spans, from the
// library's own counters and run profiler, and from probes that run after
// the timed region.  The last line of output is one JSON object with the
// metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "workloads.h"
#include "src/obs/json_lite.h"

namespace {

using vodbench::MetricMap;
using vodbench::RunKind;
using vodbench::ScopedSpan;

// Every per-layer metric, with its unit.  A layer a workload does not
// exercise reports 0.  run.py checks this set against BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"workload.generate_trace_s", "s"}, {"workload.requests", "count"},
    {"core.replicate_s", "s"},          {"core.replicas", "count"},
    {"core.place_s", "s"},              {"core.layout_save_s", "s"},
    {"core.layout_load_s", "s"},        {"core.layout_bytes", "bytes"},
    {"audit.layout_s", "s"},            {"audit.checks", "count"},
    {"sa.solve_s", "s"},                {"sa.construct_s", "s"},
    {"sa.construct_cpu_s", "s"},        {"sa.superstep_s", "s"},
    {"sa.extract_s", "s"},              {"sa.unattributed_s", "s"},
    {"anneal.moves_proposed", "count"}, {"anneal.moves_per_s", "1/s"},
    {"anneal.accept_ratio", "fraction"}, {"anneal.noop_ratio", "fraction"},
    {"anneal.swap_accept_ratio", "fraction"},
    {"sim.run_s", "s"},                 {"sim.requests_per_s", "1/s"},
    {"sim.heap_high_water", "count"},
    {"sim.shard.plan_s", "s"},          {"sim.shard.setup_s", "s"},
    {"sim.shard.run_s", "s"},           {"sim.shard.merge_s", "s"},
    {"sim.shard.speedup", "x"},         {"cache.hits", "count"},
    {"cache.misses", "count"},          {"cache.evictions", "count"},
    {"cache.tier_s", "s"},
    {"obs.report_build_s", "s"},        {"obs.report_write_s", "s"},
    {"obs.report_validate_s", "s"},     {"obs.report_bytes", "bytes"},
    {"obs.timeline_samples", "count"},  {"obs.event_log_dropped", "count"},
    {"bench.trace_overhead_pct", "%"},  {"bench.span_coverage_pct", "%"},
    {"proc.cpu_per_wall", "ratio"},
    // The output's quality (Workload::quality), exact at a fixed seed.
    {"quality.imbalance_eq2", "fraction"}, {"quality.imbalance_eq3", "fraction"},
    {"quality.objective_eq1", "score"},    {"quality.reject_rate", "fraction"},
    {"quality.cache_hit_ratio", "fraction"},
};

// Per-layer metrics read straight off the spans: (metric, span name, where
// the span runs).  Planning spans run in the timed region on plan_library
// and in set-up on the sim workloads; the first kind that has them wins.
struct SpanMetric {
  const char* metric;
  const char* span;
};
const std::vector<SpanMetric> kSpanMetrics = {
    {"workload.generate_trace_s", "workload.generate_trace"},
    {"core.replicate_s", "core.replicate"},
    {"core.place_s", "core.place"},
    {"core.layout_save_s", "core.layout_save"},
    {"core.layout_load_s", "core.layout_load"},
    {"sa.solve_s", "sa.solve"},
    {"sim.run_s", "sim.run"},
    {"obs.report_build_s", "obs.report_build"},
    {"obs.report_write_s", "obs.report_write"},
    {"obs.report_validate_s", "obs.report_validate"},
};

struct Args {
  vodbench::WorkloadConfig workload;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool selftest_audit = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "vodbench: " << message << "\n"
            << "usage: vodbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR] "
               "[--trace-out FILE] | --selftest-audit\n";
  std::exit(2);
}

// The CPUs this process may run on (its affinity mask, which a cpuset or
// taskset narrows), as nproc counts them.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.workload.threads = std::min(4U, usable_cpus());
  args.workload.work_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload.name = next();
        have_workload = true;
      } else if (flag == "--seed") {
        args.workload.seed = std::stoull(next());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(next());
      } else if (flag == "--trace") {
        args.trace = std::stoi(next()) != 0;
      } else if (flag == "--work-dir") {
        args.workload.work_dir = next();
      } else if (flag == "--trace-out") {
        args.trace_out = next();
      } else if (flag == "--tiny") {
        args.workload.tiny = true;
      } else if (flag == "--selftest-audit") {
        args.selftest_audit = true;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag);
    }
  }
  if (!have_workload && !args.selftest_audit) usage_error("--workload is required");
  return args;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(vodbench::now_ns() - start_ns) * 1e-9;
}

// A layout in which one video lists the same server twice must fail the
// benchmark's audit check.
int selftest_audit() {
  const std::vector<double> popularity = {0.5, 0.3, 0.2};
  vodrep::ReplicationPlan plan;
  plan.replicas = {2, 1, 1};
  vodrep::Layout good;
  good.assignment = {{0, 1}, {1}, {0}};
  vodrep::Layout duplicated;
  duplicated.assignment = {{0, 0}, {1}, {0}};
  const bool good_ok =
      vodbench::audit_layout(good, plan, popularity, 2, 2).ok();
  const vodrep::AuditReport bad =
      vodbench::audit_layout(duplicated, plan, popularity, 2, 2);
  const bool caught = bad.has(vodrep::ViolationKind::kDuplicateServer);
  std::cout << "audit accepts a valid layout: " << (good_ok ? "yes" : "no")
            << "\naudit rejects a duplicated replica: "
            << (caught ? "yes" : "no") << "\n";
  return good_ok && caught ? EXIT_SUCCESS : EXIT_FAILURE;
}

void print_metric(const char* kind, const std::string& name,
                  const vodbench::Metric& metric) {
  std::cout << kind << " " << name << " = " << metric.value << " "
            << metric.unit << "\n";
}

// What recording one span costs: the mean of many empty spans opened and
// closed on a scratch recorder.
double span_cost_s() {
  constexpr int kSpans = 200000;
  vodbench::SpanRecorder scratch;
  scratch.set_enabled(true);
  scratch.begin_run(RunKind::kProbe);
  const std::int64_t start = vodbench::now_ns();
  for (int i = 0; i < kSpans; ++i) scratch.close(scratch.open("calibrate"));
  return seconds_since(start) / kSpans;
}

// Self time per layer (name up to the first '.') over the traced timed
// iterations, and the share of their wall time the layers below the
// iteration root account for.
double report_self_times(const vodbench::SpanRecorder& spans) {
  const std::vector<std::int64_t> self = spans.self_ns();
  std::map<std::string, std::int64_t> by_layer;
  std::int64_t root_total = 0;
  std::int64_t root_self = 0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const vodbench::Span& span = spans.spans()[i];
    if (spans.kind_of(span.run) != RunKind::kTimed) continue;
    const std::string name = span.name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
    if (span.parent < 0) {
      root_total += span.end_ns - span.start_ns;
      root_self += self[i];
    }
  }
  for (const auto& [layer, ns] : by_layer) {
    std::cout << "self " << layer << " = " << static_cast<double>(ns) * 1e-9
              << " s (" << 100.0 * static_cast<double>(ns) /
                               static_cast<double>(std::max<std::int64_t>(1, root_total))
              << " % of traced wall)\n";
  }
  return root_total > 0 ? 100.0 * (1.0 - static_cast<double>(root_self) /
                                             static_cast<double>(root_total))
                        : 0.0;
}

int run(const Args& args) {
  vodbench::SpanRecorder& spans = vodbench::recorder();
  spans.set_enabled(args.trace);

  // Set-up, several times, each on a fresh workload whose predecessor has
  // been freed; the last one runs.  At least 3, then more while they stay
  // under 3 s in total (up to 150), so that a set-up of a few milliseconds
  // is sampled over seconds rather than over one short burst of the host.
  std::unique_ptr<vodbench::Workload> workload;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < 3 || (setup_s.size() < 150 && setup_total < 3.0)) {
    workload.reset();
    workload = vodbench::make_workload(args.workload);
    spans.begin_run(RunKind::kSetup);
    const std::int64_t start = vodbench::now_ns();
    {
      ScopedSpan root("bench.setup");
      workload->setup();
    }
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  }

  // Timed region, repeated for --seconds: at least 3 iterations untraced.
  // A traced run starts with an untraced warm-up iteration (checked but not
  // sampled, so the cold first pass does not bias the overhead figure), then
  // alternates traced and untraced iterations.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double cpu_s = 0.0;
  double timed_wall_s = 0.0;
  double rss_mb = 0.0;
  const std::int64_t loop_start = vodbench::now_ns();
  const std::size_t min_iterations = 3;
  for (std::size_t i = 0;; ++i) {
    if (i >= min_iterations) {
      std::vector<double> all = untraced_s;
      all.insert(all.end(), traced_s.begin(), traced_s.end());
      if (seconds_since(loop_start) + vodbench::median(all) > args.seconds) {
        break;
      }
    }
    const bool warm_up = args.trace && i == 0;
    const bool traced = args.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.begin_run(RunKind::kTimed);
    const double cpu_start = process_cpu_s();
    const std::int64_t start = vodbench::now_ns();
    {
      ScopedSpan root("bench.iteration");
      workload->iterate(traced);
    }
    const double elapsed = seconds_since(start);
    // Peak RSS is what one planning call needs: the high water after set-up
    // and the first timed region, before repeats can fragment the heap.
    if (i == 0) rss_mb = peak_rss_mb();
    if (!warm_up) {
      cpu_s += process_cpu_s() - cpu_start;
      timed_wall_s += elapsed;
      (traced ? traced_s : untraced_s).push_back(elapsed);
    }

    spans.set_enabled(args.trace);
    spans.begin_run(RunKind::kCheck);
    std::vector<std::string> found = workload->check(i == 0);
    ++attempted;
    if (!found.empty()) {
      ++failed;
      problems.insert(problems.end(), found.begin(), found.end());
    }
  }

  MetricMap metrics;
  MetricMap notes;
  MetricMap quality;
  workload->quality(quality);
  if (!args.trace) {
    metrics["setup_s"] = {vodbench::median(setup_s), "s"};
    metrics["wall_s"] = {vodbench::median(untraced_s), "s"};
    metrics["peak_rss_mb"] = {rss_mb, "MB"};
  } else {
    MetricMap layers;
    for (const auto& [name, unit] : kLayerMetrics) layers[name] = {0.0, unit};
    for (const SpanMetric& m : kSpanMetrics) {
      for (RunKind kind : {RunKind::kTimed, RunKind::kSetup}) {
        if (spans.has(m.span, kind)) {
          layers[m.metric].value = spans.median_run_seconds(m.span, kind);
          break;
        }
      }
    }
    layers["audit.layout_s"].value =
        spans.median_run_seconds("audit.layout", RunKind::kCheck) +
        spans.median_run_seconds("audit.solution", RunKind::kCheck);
    // The tracing overhead is what the spans of one traced iteration cost,
    // as a share of an untraced iteration.  The traced and untraced samples
    // are too few to resolve it on the slow workloads (one of each on
    // plan_library), so their ratio is only a note, marked when either side
    // has fewer than three samples.
    const auto timed_spans = static_cast<double>(std::count_if(
        spans.spans().begin(), spans.spans().end(), [&](const vodbench::Span& span) {
          return spans.kind_of(span.run) == RunKind::kTimed;
        }));
    const double spans_per_iteration =
        timed_spans / static_cast<double>(std::max<std::size_t>(1, traced_s.size()));
    layers["bench.trace_overhead_pct"].value =
        100.0 * spans_per_iteration * span_cost_s() / vodbench::median(untraced_s);
    const bool resolved = traced_s.size() >= 3 && untraced_s.size() >= 3;
    notes[resolved ? "bench.paired_overhead_pct" : "bench.paired_overhead_pct_unresolved"] = {
        100.0 * (vodbench::median(traced_s) / vodbench::median(untraced_s) - 1.0), "%"};
    notes["bench.spans_per_iteration"] = {spans_per_iteration, "count"};
    layers["proc.cpu_per_wall"].value = cpu_s / timed_wall_s;
    for (const auto& [name, value] : quality) {
      const auto layer = layers.find("quality." + name);
      if (layer != layers.end()) layer->second.value = value.value;
    }
    // The probes and the coverage check count as one more operation.
    std::vector<std::string> found = workload->layer_metrics(layers, notes);
    const double coverage = report_self_times(spans);
    layers["bench.span_coverage_pct"].value = coverage;
    if (coverage < 95.0) {
      found.push_back("layer self times cover only " +
                      std::to_string(coverage) + " % of traced wall time");
    }
    ++attempted;
    if (!found.empty()) {
      ++failed;
      problems.insert(problems.end(), found.begin(), found.end());
    }
    metrics = std::move(layers);
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    spans.write_chrome_trace(out, args.workload.name, args.workload.seed);
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  std::cout << "workload " << args.workload.name << " seed "
            << args.workload.seed << " threads " << args.workload.threads
            << (args.workload.tiny ? " size tiny" : " size full") << " trace "
            << (args.trace ? 1 : 0) << " setups " << setup_s.size()
            << " iterations " << attempted << "\n";
  for (const std::string& problem : problems) {
    std::cout << "check failed: " << problem << "\n";
  }
  const auto print_samples = [](const char* what,
                                const std::vector<double>& samples) {
    std::cout << what << " (" << samples.size() << ")";
    for (double s : samples) std::cout << " " << s;
    std::cout << "\n";
  };
  print_samples("setup samples s", setup_s);
  print_samples("untraced iteration samples s", untraced_s);
  if (args.trace) print_samples("traced iteration samples s", traced_s);
  const bool correct = failed == 0;
  for (const auto& [name, metric] : quality) {
    print_metric("quality", name, metric);
  }
  for (const auto& [name, metric] : notes) print_metric("note", name, metric);
  if (correct) {
    for (const auto& [name, metric] : metrics) print_metric("metric", name, metric);
  }

  vodrep::obs::JsonValue result = vodrep::obs::JsonValue::object();
  result.set("correct", vodrep::obs::JsonValue::boolean(correct));
  result.set("attempted", vodrep::obs::JsonValue::integer_u64(attempted));
  result.set("failed", vodrep::obs::JsonValue::integer_u64(failed));
  vodrep::obs::JsonValue values = vodrep::obs::JsonValue::object();
  if (correct) {
    for (const auto& [name, metric] : metrics) {
      vodrep::obs::JsonValue entry = vodrep::obs::JsonValue::object();
      entry.set("value", vodrep::obs::JsonValue::number(metric.value));
      entry.set("unit", vodrep::obs::JsonValue::string(metric.unit));
      values.set(name, std::move(entry));
    }
  }
  result.set("metrics", std::move(values));
  std::cout << result.dump() << std::endl;
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.selftest_audit ? selftest_audit() : run(args);
  } catch (const std::exception& error) {
    std::cerr << "vodbench: error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
