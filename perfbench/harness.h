#ifndef CACKLE_PERFBENCH_HARNESS_H_
#define CACKLE_PERFBENCH_HARNESS_H_

// Shared machinery of the wall-clock benchmark binary: the run
// configuration, wall-clock spans around calls into the library, the
// metric/check report, and the host probes (peak RSS, environment header).
// Every host timing is std::chrono::steady_clock wall time.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
};

/// Derives the seed of one named input stream from the run's seed, so every
/// generator seed follows from --seed alone.
uint64_t DeriveSeed(uint64_t run_seed, uint64_t stream);

/// \brief Wall-clock spans recorded by the benchmark around public library
/// calls: name, start, end and parent, kept in memory and written once at
/// the end of the run. A disabled trace records nothing.
class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span as a child of the innermost open span; -1 when disabled.
  int Begin(const char* name);
  void End(int id);

  /// Summed duration and self time (duration minus the time covered by
  /// direct children) of every span called `name`.
  double TotalSeconds(const std::string& name) const;
  double SelfSeconds(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  /// Summed duration of the direct children of every span called `name`.
  double ChildSeconds(const std::string& name) const;

  void WriteJson(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = -1.0;
    double child_s = 0.0;
  };

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: `Scope s(trace, "engine.run");` around one library call.
class Scope {
 public:
  Scope(SpanTrace* trace, const char* name)
      : trace_(trace), id_(trace->Begin(name)) {}
  ~Scope() { trace_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanTrace* trace_;
  int id_;
};

/// \brief Everything a run reports: metrics by name with units, and the
/// output checks. Printed as one JSON object on the last line of stdout.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check is also logged to stderr.
  void Check(const std::string& name, bool ok, const std::string& detail = "");

  /// Wall times of the untraced timed passes, printed with the report so
  /// the sample count and spread behind best_pass_s are visible.
  void SetPasses(std::vector<double> pass_s) { passes_ = std::move(pass_s); }

  int64_t checks() const { return checks_; }
  int64_t failed_checks() const { return failed_; }
  void Print(std::ostream& os, const RunConfig& config) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<double> passes_;
  int64_t checks_ = 0;
  int64_t failed_ = 0;
};

/// Median (interpolated) and nearest-rank percentile of `values`.
double Median(std::vector<double> values);
double PercentileOf(std::vector<double> values, double p);

/// High-water resident set size of this process, in MB (getrusage).
double PeakRssMb();
/// Current resident set size of this process, in MB.
double CurrentRssMb();

/// Executor threads for multi-threaded workloads: min(4, cores online).
int BenchThreads();

/// A std::ostream that discards its bytes and counts them, for timing
/// serialization without touching the disk.
class CountingStream : public std::ostream {
 public:
  CountingStream() : std::ostream(&buf_) {}
  int64_t bytes() const { return buf_.bytes; }

 private:
  struct Buf : std::streambuf {
    int64_t bytes = 0;
    int_type overflow(int_type c) override {
      if (c != traits_type::eof()) ++bytes;
      return c;
    }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      bytes += n;
      return n;
    }
  };
  Buf buf_;
};

// Workload entry points (one translation unit each).
void RunTraceReplay(const RunConfig& config, SpanTrace* trace, Report* report);
void RunEnginePaper(const RunConfig& config, SpanTrace* trace, Report* report);
void RunEngineChaosTenants(const RunConfig& config, SpanTrace* trace,
                           Report* report);
void RunExecTpch(const RunConfig& config, SpanTrace* trace, Report* report);

/// Traced runs only, first thing in the process: RSS growth from
/// constructing one default WorkloadHistory (strategy.history_mb). Measured
/// before any other allocation so freed heap cannot hide it.
void MeasureHistoryRss(SpanTrace* trace, Report* report);

/// Number of set-up repetitions; setup_s is their median. exec_tpch's
/// set-up takes seconds (catalog generation plus a warm-up pass), so it
/// repeats fewer times than the millisecond set-ups of the other workloads.
inline constexpr int kSetupReps = 7;
inline constexpr int kExecSetupReps = 3;

/// Reports the metrics every workload shares: setup_s (median of the
/// set-up samples), best_pass_s (fastest untraced pass: interference from
/// other tenants of the host only ever adds time), peak_rss_mb, and the
/// traced-run bookkeeping (trace_overhead_s, top_span_coverage).
void ReportCommon(const std::vector<double>& setup_s,
                  const std::vector<double>& untraced_pass_s,
                  const std::vector<double>& traced_pass_s,
                  const SpanTrace& trace, Report* report);

}  // namespace perfbench

#endif  // CACKLE_PERFBENCH_HARNESS_H_
