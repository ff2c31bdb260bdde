#pragma once
// Tiny --flag=value command-line parser shared by the tools, examples and
// benches.

#include <map>
#include <string>
#include <vector>

namespace treesvd {

/// Strict conversions: the whole text must parse. On failure they throw
/// std::invalid_argument naming `what` (e.g. "--n") and the bad text.
long long parse_int(const std::string& text, const std::string& what);
double parse_double(const std::string& text, const std::string& what);

/// Parses "--key=value" and bare "--key" (value "1") arguments.
/// Unrecognised positional arguments are rejected so typos fail loudly, and
/// the typed getters reject malformed values (std::invalid_argument).
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// Comma-separated list ("a,b,c"); an empty list or item is rejected.
  std::vector<std::string> get_list(const std::string& key, const std::string& fallback) const;

  /// Every key given on the command line, sorted.
  std::vector<std::string> keys() const;
  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
};

}  // namespace treesvd
