#include "workload/trace_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

namespace cackle {
namespace {

bool LooksLikeHeader(const std::string& line) {
  for (char c : line) {
    if (std::isalpha(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

/// Parses a whole field as a decimal int64, ignoring surrounding blanks.
/// False for an empty field, any other character, or overflow.
bool ParseIntField(std::string_view field, int64_t* out) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!field.empty() && blank(field.front())) field.remove_prefix(1);
  while (!field.empty() && blank(field.back())) field.remove_suffix(1);
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Demand bound: WorkloadHistory sums up to 3600 one-second samples.
constexpr int64_t kMaxDemand = std::numeric_limits<int64_t>::max() / 3600;
/// Length bound: a longer trace is probably in milliseconds.
constexpr int64_t kMaxSeconds = 400LL * 24 * 3600;

}  // namespace

StatusOr<std::vector<int64_t>> ParseDemandCsv(const std::string& text) {
  std::vector<std::pair<int64_t, int64_t>> samples;
  std::istringstream in(text);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip trailing CR (Windows exports) and surrounding whitespace.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line_no == 1 && LooksLikeHeader(line)) continue;
    const size_t comma = line.find(',');
    const auto bad = [line_no](const char* what) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + what);
    };
    if (comma == std::string::npos) return bad("expected 'second,demand'");
    const std::string_view row(line);
    int64_t second = 0;
    int64_t demand = 0;
    if (!ParseIntField(row.substr(0, comma), &second) || second < 0) {
      return bad("bad second value");
    }
    if (!ParseIntField(row.substr(comma + 1), &demand)) {
      return bad("bad demand value");
    }
    if (demand < 0) return bad("negative demand");
    if (demand > kMaxDemand) {
      return bad("demand above INT64_MAX / 3600 would overflow an hour sum");
    }
    samples.emplace_back(second, demand);
  }
  if (samples.empty()) return Status::InvalidArgument("empty trace");
  std::sort(samples.begin(), samples.end());
  const auto dup = std::adjacent_find(
      samples.begin(), samples.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (dup != samples.end()) {
    return Status::InvalidArgument("second " + std::to_string(dup->first) +
                                   " appears twice");
  }
  if (samples.back().first >= kMaxSeconds) {
    return Status::InvalidArgument("trace longer than 400 days; check units");
  }
  std::vector<int64_t> series;
  series.reserve(static_cast<size_t>(samples.back().first + 1));
  for (const auto& [second, demand] : samples) {
    // Forward-fill the gap up to this sample (zero before the first).
    series.resize(static_cast<size_t>(second),
                  series.empty() ? 0 : series.back());
    series.push_back(demand);
  }
  return series;
}

StatusOr<std::vector<int64_t>> LoadDemandCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseDemandCsv(buffer.str());
}

std::string FormatDemandCsv(const std::vector<int64_t>& series) {
  std::ostringstream out;
  out << "second,demand\n";
  for (size_t s = 0; s < series.size(); ++s) {
    out << s << "," << series[s] << "\n";
  }
  return out.str();
}

Status SaveDemandCsv(const std::string& path,
                     const std::vector<int64_t>& series) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  out << FormatDemandCsv(series);
  return out ? Status::OK() : Status::IoError("write failed: " + path);
}

}  // namespace cackle
