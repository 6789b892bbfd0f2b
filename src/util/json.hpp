#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace llamp {

/// Minimal JSON document model for the api layer's request/response
/// serving: enough of RFC 8259 to parse one request per JSONL line and to
/// navigate it with typed accessors.  Objects preserve insertion order, so
/// a parse → serialize round trip through the api request types is
/// byte-stable.  JSON arriving over the batch surface is user input, so
/// every malformed construct raises UsageError (the CLI's exit-2 class),
/// never a crash or a silently defaulted field.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  /// Parse one complete JSON document; trailing non-whitespace is an
  /// error.  Throws UsageError with a byte offset on malformed input.
  static JsonValue parse(std::string_view text);

  /// Values built in code (the CLI flag surface lexes flag text into the
  /// document a request parser reads).  A number keeps its source `token`
  /// for exact as_unsigned reads.
  static JsonValue of_bool(bool b);
  static JsonValue of_number(double v, std::string token);
  static JsonValue of_string(std::string s);
  static JsonValue of_array(std::vector<JsonValue> items);
  static JsonValue of_object(
      std::vector<std::pair<std::string, JsonValue>> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors.  `what` names the field and prefixes every error
  /// message; a kind mismatch is a UsageError ("<what>: expected number,
  /// got string").
  bool as_bool(const std::string& what) const;
  double as_number(const std::string& what) const;
  /// Exact unsigned 64-bit read: a plain-digit token is parsed as an
  /// integer directly (doubles cannot represent every u64, and a seed
  /// silently rounded to the nearest representable double would break the
  /// reproducibility contract); scientific/fractional spellings are
  /// accepted only while exactly integral and at most 2^53.  Negative or
  /// non-integral values throw.
  std::uint64_t as_unsigned(const std::string& what) const;
  const std::string& as_string(const std::string& what) const;
  const std::vector<JsonValue>& as_array(const std::string& what) const;

  /// Object member lookup; returns nullptr when absent (or when this value
  /// is not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members(
      const std::string& what) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

/// Shortest decimal form of `v` that strtod parses back to exactly `v`
/// (precision 6, widening to 17 only when needed), so serialized requests
/// stay human-readable and (de)serialization round-trips bitwise.
/// Non-finite values serialize as null per JSON.
std::string json_double(double v);

/// JSON string escaping (quotes, backslashes, control characters), shared
/// with core/report's emitters.
std::string json_escape_string(const std::string& s);

}  // namespace llamp
