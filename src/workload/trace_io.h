#ifndef CACKLE_WORKLOAD_TRACE_IO_H_
#define CACKLE_WORKLOAD_TRACE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cackle {

// CSV import/export for demand traces, so external workloads (a Redshift
// console export, a cluster-manager log) can be replayed through the
// analytical model the way Section 5.4 replays the startup / Alibaba /
// Azure traces.

/// Parses CSV text into a per-second demand series. Format: an optional
/// header line, then `second,demand` rows. Seconds may be sparse or
/// unordered; a gap repeats the previous value (cluster exports often
/// sample irregularly), and seconds before the first sample are zero. Each
/// field must be a whole decimal integer (blanks around it are allowed);
/// non-numeric fields, trailing characters, a second listed twice, negative
/// values, seconds beyond 400 days and demand above INT64_MAX / 3600 (which
/// would overflow a one-hour window sum) are rejected.
[[nodiscard]] StatusOr<std::vector<int64_t>> ParseDemandCsv(
    const std::string& text);

/// Loads from a file path.
[[nodiscard]] StatusOr<std::vector<int64_t>> LoadDemandCsv(
    const std::string& path);

/// Renders a series as `second,demand` CSV text (with header).
std::string FormatDemandCsv(const std::vector<int64_t>& series);

/// Writes a series to a file.
[[nodiscard]] Status SaveDemandCsv(const std::string& path,
                     const std::vector<int64_t>& series);

}  // namespace cackle

#endif  // CACKLE_WORKLOAD_TRACE_IO_H_
