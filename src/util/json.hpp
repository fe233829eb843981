// Minimal JSON value + recursive-descent parser, dependency-free.
//
// Exists for the observability tooling: bench_check reads committed
// BENCH_*.json baselines back in, and the tests validate that every exporter
// (trace JSON, metrics JSON, BENCH_*.json) emits well-formed JSON. It is a
// reader for files this repo itself writes — full RFC 8259 syntax is
// accepted, but no attempt is made at streaming, comments, or incremental
// parsing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace meshsearch::util {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull = 0,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }
  /// Object members in document order (duplicate keys keep the last value).
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Conveniences with defaults — `get_number("threads", 1)` style.
  double get_number(std::string_view key, double fallback = 0) const;
  std::string get_string(std::string_view key,
                         std::string fallback = {}) const;

  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> a);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> o);

  /// Serialize back to JSON text. indent < 0 renders compact; indent >= 0
  /// pretty-prints with that many spaces per level (committed baselines use
  /// 2 so git diffs stay reviewable). Non-finite numbers render as null —
  /// round-tripping through parse_json otherwise preserves the document.
  std::string dump(int indent = -1) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

struct JsonParseResult {
  bool ok = false;
  std::string error;      ///< human-readable message with offset when !ok
  JsonValue value;
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Never throws.
JsonParseResult parse_json(std::string_view text);

/// Read and parse a JSON file. !ok with an I/O message when unreadable.
JsonParseResult parse_json_file(const std::string& path);

}  // namespace meshsearch::util
