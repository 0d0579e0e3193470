#include "src/util/json.h"

#include <cstdio>

namespace flashtier {

namespace {

std::string Quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + '"';
}

}  // namespace

JsonLine& JsonLine::Raw(std::string_view key, std::string_view text) {
  if (need_comma_) {
    out_ += ',';
  }
  need_comma_ = true;
  out_ += Quoted(key);
  out_ += ':';
  out_ += text;
  return *this;
}

JsonLine& JsonLine::Str(std::string_view key, std::string_view value) {
  return Raw(key, Quoted(value));
}

JsonLine& JsonLine::Double(std::string_view key, double value, int precision) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", precision, value);
  return Raw(key, text);
}

JsonLine& JsonLine::Open(std::string_view key) {
  Raw(key, "{");
  need_comma_ = false;
  ++open_objects_;
  return *this;
}

JsonLine& JsonLine::Close() {
  out_ += '}';
  --open_objects_;
  need_comma_ = true;
  return *this;
}

bool AppendJsonLine(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  return true;
}

}  // namespace flashtier
