#pragma once

// Minimal JSON value + recursive-descent parser, enough to read back the
// trace/metrics files the exporters write (toast-trace CLI, round-trip
// tests, scripts), plus the one strict Reader every toastcase schema
// parser is written against.  No external dependencies.

#include <climits>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace toast::obs::json {

class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member or nullptr.
  const Value* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  /// Object member; throws if absent.
  const Value& at(const std::string& key) const {
    const Value* v = find(key);
    if (v == nullptr) {
      throw ParseError("missing key: " + key);
    }
    return *v;
  }
  double number_or(const std::string& key, double fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->number : fallback;
  }

  /// Parse a complete JSON document; throws ParseError on malformed input.
  static Value parse(const std::string& text);
};

/// Escape a string for embedding in a JSON document (no quotes added).
std::string escape(const std::string& s);

/// Load and parse a JSON file; throws ParseError on I/O or parse
/// failure, with a message that starts with `path`.
Value load_file(const std::string& path);

/// A schema document broke a rule.  The message names the path of the
/// offending value and the rule, e.g.
/// "serve spec.tenants[2].faults.rules[3].probability: must be a finite
/// number in [0, 1]".
class SchemaError : public std::runtime_error {
 public:
  explicit SchemaError(const std::string& what) : std::runtime_error(what) {}
};

/// Strict typed view of one JSON object of a toastcase schema document
/// (docs/ROBUSTNESS.md, "Strict reader").  Absent keys take the caller's
/// default; a present key must have the right type and range; every
/// failure throws SchemaError naming `path.key`.  The viewed Value must
/// outlive the Reader.
class Reader {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// View `v` as the object at `path`; throws unless it is an object.
  Reader(const Value& v, std::string path);
  /// View a whole document: also requires "schema" to be `schema`.
  static Reader document(const Value& v, std::string path,
                         const char* schema);

  const std::string& path() const { return path_; }
  const Value& value() const { return *v_; }
  bool has(const char* key) const { return v_->find(key) != nullptr; }

  /// Reject any member not in `known`: a typo must be an error, not a
  /// silently applied default.
  void keys(std::initializer_list<const char*> known) const;

  /// Required string.
  std::string string(const char* key) const;
  std::string string_or(const char* key, const std::string& fallback) const;
  /// `convert` applied to the string at `key` (required when `fallback`
  /// is null); a std::runtime_error from the converter (an unknown enum
  /// name) is re-thrown naming this key.
  template <class Convert>
  auto string_as(const char* key, Convert convert,
                 const char* fallback = nullptr) const {
    const std::string s =
        fallback == nullptr ? string(key) : string_or(key, fallback);
    try {
      return convert(s);
    } catch (const std::runtime_error& e) {
      fail(key, e.what());
    }
  }
  bool bool_or(const char* key, bool fallback) const;
  /// Finite number in [lo, hi].
  double number_or(const char* key, double fallback, double lo,
                   double hi = kInf) const;
  /// Integer-valued number in [lo, hi]: no truncation of 1.5, no
  /// overflowing cast of 3e9.
  int integer_or(const char* key, int fallback, int lo = INT_MIN,
                 int hi = INT_MAX) const;
  /// RNG seed: an integer in [0, 2^53], where doubles are exact.
  std::uint64_t seed_or(const char* key, std::uint64_t fallback) const;

  /// The object at `key` (path "path.key"), or nullopt when absent.
  std::optional<Reader> object(const char* key) const;
  /// The array at `key` as objects (paths "path.key[i]"); empty when
  /// absent.
  std::vector<Reader> array(const char* key) const;

  /// Throw SchemaError for `path.key` (`key` empty: the object itself).
  [[noreturn]] void fail(const std::string& key,
                         const std::string& rule) const;

 private:
  /// The member at `key` (nullptr when absent), which must be an
  /// integer-valued number in [lo, hi].
  const Value* integer(const char* key, double lo, double hi) const;

  const Value* v_;
  std::string path_;
};

}  // namespace toast::obs::json
