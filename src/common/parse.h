// Strict whole-string number parsing for command-line values: trailing
// junk, an empty string, or overflow is a parse failure, never a silent 0.
// The benches' flag parser (bench/bench_json.h), advisor_cli and
// advisor_serve share it.

#ifndef OLAPIDX_COMMON_PARSE_H_
#define OLAPIDX_COMMON_PARSE_H_

#include <cerrno>
#include <cstdlib>
#include <string>

namespace olapidx {

inline bool ParseLongStrict(const std::string& text, long* out) {
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

inline bool ParseDoubleStrict(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

}  // namespace olapidx

#endif  // OLAPIDX_COMMON_PARSE_H_
