/// \file json.hpp
/// Minimal JSON value, parser and writer for the observability layer, the
/// bench manifests, and the on-disk result cache.  Deliberately tiny:
/// objects are ordered key/value vectors (insertion order is preserved and
/// is what dump() emits), numbers are doubles (integral values round-trip
/// as integers up to 2^53; non-integral doubles are emitted with 17
/// significant digits, so every finite double round-trips bitwise), and
/// parse() rejects malformed input with a positioned error instead of
/// guessing.  Parsing is hardened for untrusted input (config files are
/// external data): nesting beyond 128 levels and duplicate object keys are
/// ParseErrors, never stack overflows or silent first-binding-wins lookups.
/// No external dependencies -- this is the repo's one JSON
/// implementation, shared by Snapshot::to_json, the manifest writer,
/// bench_compare and pgmcml::cache.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pgmcml::obs::json {

class Value;

/// Array of values.
using Array = std::vector<Value>;
/// Ordered object: a key/value sequence.  Kept as a vector (not a map) so
/// Value stays complete inside its own variant and emission order is the
/// caller's insertion order.
using Object = std::vector<std::pair<std::string, Value>>;

/// Thrown by Value::parse on malformed input, with the byte offset.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(std::int64_t i) : v_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : v_(static_cast<double>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Object& as_object();

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const Value* find(std::string_view key) const;
  /// Like find(), but throws std::runtime_error when the key is missing.
  const Value& at(std::string_view key) const;
  /// Appends (or replaces the first occurrence of) an object member.
  void set(std::string_view key, Value v);

  /// Number shortcut: member `key` as a double, or `fallback` when the
  /// member is missing or not a number.
  double number_or(std::string_view key, double fallback) const;
  /// String shortcut, same contract.
  std::string string_or(std::string_view key, std::string fallback) const;

  /// Parses one JSON document (trailing non-whitespace is an error).
  static Value parse(std::string_view text);

  /// Serializes.  indent < 0: compact one-line output; indent >= 0: pretty-
  /// printed with that many spaces per level.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Escapes and quotes `s` as a JSON string literal, appended to `out`.
void append_quoted(std::string& out, std::string_view s);

/// Reads and parses one JSON document from `path`.  Returns nullopt on any
/// failure -- missing file, I/O error, malformed JSON -- never throws; this
/// is the corruption-tolerant load the result cache builds on.
std::optional<Value> load_file(const std::string& path);

/// Serializes `v` (with the given indent, see Value::dump) and writes it to
/// `path` atomically: the document lands in a temporary file in the same
/// directory first and is then renamed over the target, so a concurrent
/// reader sees either the old file or the complete new one, never a torn
/// write.  Returns false on I/O failure.
bool save_file_atomic(const std::string& path, const Value& v,
                      int indent = -1);

}  // namespace pgmcml::obs::json
