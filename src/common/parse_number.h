#ifndef CACKLE_COMMON_PARSE_NUMBER_H_
#define CACKLE_COMMON_PARSE_NUMBER_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace cackle {

/// Strict number parsing for scenario files and command-line flags: the
/// whole string must be one base-10 number that fits the type. On failure
/// `*out` is left untouched and the result is false.
inline bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* parse_end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &parse_end, 10);
  if (errno != 0 || parse_end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

/// As ParseInt64, and a leading '-' is rejected.
inline bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* parse_end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &parse_end, 10);
  if (errno != 0 || parse_end != s.c_str() + s.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// As ParseInt64 for a double; NaN and infinities are rejected.
inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* parse_end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &parse_end);
  if (errno != 0 || parse_end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace cackle

#endif  // CACKLE_COMMON_PARSE_NUMBER_H_
