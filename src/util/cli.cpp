#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "util/require.hpp"

namespace treesvd {
namespace {

[[noreturn]] void reject(const std::string& what, const char* expected, const std::string& text) {
  throw std::invalid_argument(what + ": expected " + expected + ", got '" + text + "'");
}

}  // namespace

long long parse_int(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) reject(what, "an integer", text);
  return v;
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) reject(what, "a number", text);
  return v;
}

Cli::Cli(int argc, const char* const* argv) {
  TREESVD_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    TREESVD_REQUIRE(arg.starts_with("--"), "expected --key[=value], got: " + std::string(arg));
    const std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string_view value = eq == std::string_view::npos ? "1" : body.substr(eq + 1);
    kv_.insert_or_assign(std::string(body.substr(0, eq)), std::string(value));
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long long Cli::get_int(const std::string& key, long long fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_int(it->second, "--" + key);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_double(it->second, "--" + key);
}

std::vector<std::string> Cli::get_list(const std::string& key,
                                       const std::string& fallback) const {
  const std::string csv = get(key, fallback);
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = csv.find(',', start);
    out.push_back(csv.substr(start, comma - start));
    if (out.back().empty()) reject("--" + key, "a comma-separated list", csv);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  for (const auto& kv : kv_) out.push_back(kv.first);
  return out;
}

}  // namespace treesvd
