// Strict number parsers shared by the command-line tools (sweep_main,
// service_main).  Each accepts the whole argument or nothing: trailing
// text, an empty string, a value out of range and a non-finite double are
// all refused, so a flag never runs on a silently wrapped or truncated
// value.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace wcdma::cli {

/// Parses a non-negative decimal that fits T.  strtoull silently wraps
/// negative input ("-1" -> 2^64-1), and a cast would wrap anything past T's
/// range ("4294967296" -> 0 in an int); both are refused.
template <class T>
bool parse_count(const char* text, T* out) {
  if (text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  if (v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) return false;
  *out = static_cast<T>(v);
  return true;
}

/// Parses a finite double >= 0.
inline bool parse_nonneg_double(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) return false;
  *out = v;
  return true;
}

/// Parses a finite double > 0.
inline bool parse_positive_double(const char* text, double* out) {
  double v = 0.0;
  if (!parse_nonneg_double(text, &v) || v <= 0.0) return false;
  *out = v;
  return true;
}

}  // namespace wcdma::cli
