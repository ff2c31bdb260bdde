#pragma once
// JSON pieces shared by the gate tools' reports.

#include <sstream>
#include <string>

#include "mp/fault.hpp"

namespace treesvd {

/// Escapes quotes, backslashes and newlines for a JSON string literal.
inline std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Every RecoveryStats counter as one JSON object.
inline std::string recovery_json(const mp::RecoveryStats& s) {
  std::ostringstream os;
  os << "{\"drops_seen\": " << s.drops_seen
     << ", \"duplicates_injected\": " << s.duplicates_injected
     << ", \"corruptions_injected\": " << s.corruptions_injected
     << ", \"delays_seen\": " << s.delays_seen << ", \"kills\": " << s.kills
     << ", \"stalls\": " << s.stalls << ", \"corruptions_detected\": " << s.corruptions_detected
     << ", \"duplicates_suppressed\": " << s.duplicates_suppressed
     << ", \"retries\": " << s.retries << ", \"resends\": " << s.resends
     << ", \"virtual_backoff\": " << s.virtual_backoff
     << ", \"checkpoints\": " << s.checkpoints << ", \"rollbacks\": " << s.rollbacks
     << ", \"watchdog_trips\": " << s.watchdog_trips
     << ", \"norm_rereductions\": " << s.norm_rereductions << "}";
  return os.str();
}

}  // namespace treesvd
