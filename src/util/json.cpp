#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace treesvd {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonObject::render(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonObject::render(const std::string& v) {
  std::string out = "\"";
  out += json_escape(v);
  out += '"';
  return out;
}

std::string JsonObject::str(bool multiline) const {
  const char* field_sep = multiline ? ",\n  " : ", ";
  std::string out = multiline ? "{\n  " : "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    if (i != 0) out += field_sep;
    out += "\"" + f.key + "\": ";
    if (!f.is_array) {
      out += f.value;
      continue;
    }
    const bool one_per_line = multiline && !f.items.empty() && f.items.front().front() == '{';
    out += one_per_line ? "[\n    " : "[";
    for (std::size_t k = 0; k < f.items.size(); ++k) {
      if (k != 0) out += one_per_line ? ",\n    " : ", ";
      out += f.items[k];
    }
    out += one_per_line ? "\n  ]" : "]";
  }
  out += multiline ? "\n}" : "}";
  return out;
}

bool write_json_file(const std::string& path, const JsonObject& o, bool multiline) {
  std::ofstream f(path);
  f << o.str(multiline) << "\n";
  f.close();
  if (f.fail()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace treesvd
