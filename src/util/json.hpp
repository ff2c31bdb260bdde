#pragma once
// The one JSON writer: an append-only ordered object shared by the gate
// tools' reports and bench_a9_accuracy's BENCH_accuracy.json (no external
// JSON dependency).

#include <concepts>
#include <string>
#include <vector>

namespace treesvd {

/// Escapes a string for a JSON string literal: quotes, backslashes and every
/// control character (race reports carry multi-line stacks).
std::string json_escape(const std::string& in);

/// Append-only ordered JSON object: add() renders each field immediately.
/// Values are strings, booleans, integers, doubles (%.17g, so they
/// round-trip bit-exactly; non-finite ones become null), nested objects, and
/// arrays of any of these.
class JsonObject {
 public:
  template <typename T>
  JsonObject& add(const std::string& key, const T& value) {
    return push({json_escape(key), render(value), {}, false});
  }

  /// An array field; `items` is any vector of addable values (a braced list
  /// of objects works too).
  template <typename T = JsonObject>
  JsonObject& add_array(const std::string& key, const std::vector<T>& items) {
    std::vector<std::string> rendered;
    rendered.reserve(items.size());
    for (const T& item : items) rendered.push_back(render(item));
    return push({json_escape(key), {}, std::move(rendered), true});
  }

  bool empty() const noexcept { return fields_.empty(); }

  /// One line. With `multiline`, each top-level field goes on its own line
  /// and so does each element of a top-level array of objects, so archived
  /// reports diff line by line.
  std::string str(bool multiline = false) const;

 private:
  struct Field {
    std::string key;    ///< already escaped
    std::string value;  ///< rendered scalar or object; unused for arrays
    std::vector<std::string> items;
    bool is_array = false;
  };

  static std::string render(double v);
  static std::string render(bool v) { return v ? "true" : "false"; }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  static std::string render(T v) {
    return std::to_string(v);
  }
  static std::string render(const std::string& v);
  static std::string render(const char* v) { return render(std::string(v)); }
  static std::string render(const JsonObject& v) { return v.str(); }

  JsonObject& push(Field f) {
    fields_.push_back(std::move(f));
    return *this;
  }

  std::vector<Field> fields_;
};

/// Writes the object plus a trailing newline to `path` and checks the write
/// after it happened; false, with a note on stderr, when it failed.
bool write_json_file(const std::string& path, const JsonObject& o, bool multiline = false);

}  // namespace treesvd
