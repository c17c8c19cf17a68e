#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "common/json_writer.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t run_seed, uint64_t stream) {
  // splitmix64 of (seed, stream): distinct streams of one seed, and one
  // stream across seeds, are decorrelated.
  uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int SpanTrace::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = SecondsSince(origin_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanTrace::End(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_s = SecondsSince(origin_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_s +=
        span.end_s - span.start_s;
  }
}

double SpanTrace::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s >= 0.0) total += s.end_s - s.start_s;
  }
  return total;
}

double SpanTrace::SelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s >= 0.0) {
      total += s.end_s - s.start_s - s.child_s;
    }
  }
  return total;
}

double SpanTrace::ChildSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.child_s;
  }
  return total;
}

int64_t SpanTrace::Count(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const Span& s) { return s.name == name; });
}

void SpanTrace::WriteJson(std::ostream& os) const {
  cackle::JsonWriter w(os);
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Field("id", static_cast<int64_t>(i));
    w.Field("parent", static_cast<int64_t>(s.parent));
    w.Field("name", s.name);
    w.Field("start_s", s.start_s);
    w.Field("end_s", s.end_s);
    w.Field("self_s", s.end_s - s.start_s - s.child_s);
    w.EndObject();
  }
  w.EndArray();
  os << "\n";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++checks_;
  if (ok) return;
  ++failed_;
  failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
  std::cerr << "perfbench: CHECK FAILED " << failures_.back() << "\n";
}

void Report::Print(std::ostream& os, const RunConfig& config) const {
  cackle::JsonWriter w(os);
  w.BeginObject();
  w.Field("workload", config.workload);
  w.Field("seed", static_cast<int64_t>(config.seed));
  w.Field("trace", config.trace);
  w.Key("env");
  w.BeginObject();
  w.Field("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.Field("threads", static_cast<int64_t>(BenchThreads()));
  w.Field("llc_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  w.Field("build_type", PERFBENCH_BUILD_TYPE);
  w.Field("cxx_flags", PERFBENCH_CXX_FLAGS);
  w.Field("compiler", PERFBENCH_COMPILER);
  w.Field("clock", "steady_clock wall time");
  w.EndObject();
  w.Field("checks", checks_);
  w.Field("failed_checks", failed_);
  w.Key("failures");
  w.BeginArray();
  for (const std::string& f : failures_) w.String(f);
  w.EndArray();
  w.Key("pass_s");
  w.BeginArray();
  for (double s : passes_) w.Double(s);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, m] : metrics_) {
    w.Key(name);
    w.BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  os << "\n";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  int64_t pages = 0;
  int64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int BenchThreads() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(cores, 1, 4));
}

void ReportCommon(const std::vector<double>& setup_s,
                  const std::vector<double>& untraced_pass_s,
                  const std::vector<double>& traced_pass_s,
                  const SpanTrace& trace, Report* report) {
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("best_pass_s",
              *std::min_element(untraced_pass_s.begin(), untraced_pass_s.end()),
              "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->SetPasses(untraced_pass_s);
  if (!trace.enabled()) return;
  double untraced = 0.0;
  double traced = 0.0;
  for (double s : untraced_pass_s) untraced += s;
  for (double s : traced_pass_s) traced += s;
  report->Set("trace_overhead_s", traced - untraced, "s");
  const double timed = trace.TotalSeconds("bench.timed");
  report->Set("top_span_coverage",
              timed > 0.0 ? trace.ChildSeconds("bench.timed") / timed : 0.0,
              "ratio");
}

}  // namespace perfbench
