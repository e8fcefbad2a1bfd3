// A one-line JSON object writer for the binary's machine-read output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    return raw(key, fmt(v));
  }
  JsonLine& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  /// `v` must not need escaping (names, digests, error summaries).
  JsonLine& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonLine& nums(const std::string& key, const std::vector<double>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      a += (i ? ", " : "") + fmt(vs[i]);
    }
    return raw(key, a + "]");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string line() const { return "{" + body_ + "}"; }

 private:
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  std::string body_;
};

}  // namespace perfbench
