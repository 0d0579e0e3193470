// The one JSON producer behind every `--stats-json` file.
//
// Stats files are JSON lines: each run appends one object on its own line,
// so sweeps and repeated invocations accumulate rows instead of overwriting
// each other. Block() emits a whole stats struct from its Fields list
// (stat_fields.h), every field in declaration order. Doubles print at an
// explicit precision (printf "%.Nf"), which keeps committed baselines
// byte-stable.

#ifndef FLASHTIER_UTIL_JSON_H_
#define FLASHTIER_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/stat_fields.h"

namespace flashtier {

// Appends `json` and a newline to `path`; false if it cannot be opened.
bool AppendJsonLine(const std::string& path, const std::string& json);

class JsonLine {
 public:
  JsonLine& Str(std::string_view key, std::string_view value);
  JsonLine& U64(std::string_view key, uint64_t value) { return Raw(key, std::to_string(value)); }
  JsonLine& Bool(std::string_view key, bool value) { return Raw(key, value ? "true" : "false"); }
  JsonLine& Double(std::string_view key, double value, int precision);

  // Nested object: Open("x") ... Close() emits "x":{...}.
  JsonLine& Open(std::string_view key);
  JsonLine& Close();

  // Every field of a stats struct into the current object; Block() wraps
  // them in their own "key":{...}.
  template <class T>
  JsonLine& Fields(const T& stats) {
    T::Fields([&](const char* name, uint64_t T::*field, MergeRule) { U64(name, stats.*field); });
    return *this;
  }
  template <class T>
  JsonLine& Block(std::string_view key, const T& stats) {
    return Open(key).Fields(stats).Close();
  }

  // The object so far, with every still-open object closed.
  std::string str() const { return out_ + std::string(open_objects_, '}'); }

  // Appends str() as one line to `path`; false if it cannot be opened.
  bool AppendTo(const std::string& path) const { return AppendJsonLine(path, str()); }

 private:
  // `"key":` then `text` verbatim.
  JsonLine& Raw(std::string_view key, std::string_view text);

  std::string out_ = "{";
  int open_objects_ = 1;
  bool need_comma_ = false;
};

}  // namespace flashtier

#endif  // FLASHTIER_UTIL_JSON_H_
