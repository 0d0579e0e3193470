// printf-style formatting into an exactly sized std::string.

#ifndef FLASHTIER_UTIL_STR_FORMAT_H_
#define FLASHTIER_UTIL_STR_FORMAT_H_

#include <cstdarg>
#include <cstdio>
#include <string>

namespace flashtier {

inline std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));
inline std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(needed > 0 ? static_cast<size_t>(needed) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_STR_FORMAT_H_
