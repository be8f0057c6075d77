#include "pgmcml/obs/json.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pgmcml::obs::json {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not a ") + want);
}

/// Recursive-descent parser over a string_view with a depth cap (a hostile
/// "[[[[..." must become a ParseError, not a stack overflow).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(what, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Object obj;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      // Configs are untrusted external input: a document that binds one key
      // twice is ambiguous (find() would silently return the first binding,
      // hiding the second), so it is rejected, not resolved.
      for (const auto& [existing, unused] : obj) {
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      expect(':');
      obj.emplace_back(std::move(key), parse_value(depth + 1));
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Array arr;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return cp;
  }

  /// UTF-8 encoding of one BMP codepoint (surrogate pairs are combined when
  /// both halves are present; a lone surrogate becomes U+FFFD).
  void append_codepoint(std::string& out, unsigned cp) {
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (text_.substr(pos_, 2) == "\\u") {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo >= 0xDC00 && lo <= 0xDFFF) {
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else {
          cp = 0xFFFD;
        }
      } else {
        cp = 0xFFFD;
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      cp = 0xFFFD;
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("invalid number");
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no Inf/NaN; null is the conventional stand-in
    return;
  }
  char buf[32];
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  out += buf;
}

}  // namespace

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(v_);
}

double Value::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(v_);
}

Object& Value::as_object() {
  if (!is_object()) type_error("object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing member '" + std::string(key) +
                             "'");
  }
  return *v;
}

void Value::set(std::string_view key, Value v) {
  if (is_null()) v_ = Object{};
  Object& obj = as_object();
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj.emplace_back(std::string(key), std::move(v));
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string Value::string_or(std::string_view key,
                             std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * d, ' ');
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    append_quoted(out, as_string());
  } else if (is_array()) {
    const Array& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out += indent < 0 ? ", " : ",";
      newline_pad(depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    newline_pad(depth);
    out += ']';
  } else {
    const Object& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i > 0) out += indent < 0 ? ", " : ",";
      newline_pad(depth + 1);
      append_quoted(out, obj[i].first);
      out += ": ";
      obj[i].second.dump_to(out, indent, depth + 1);
    }
    newline_pad(depth);
    out += '}';
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::optional<Value> load_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return std::nullopt;
  try {
    return Value::parse(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool save_file_atomic(const std::string& path, const Value& v, int indent) {
  // Stage in the target's directory so the final rename cannot cross a
  // filesystem boundary (rename(2) atomicity holds only within one fs).
  // The pid + per-process sequence number keeps concurrent writers -- other
  // processes and other threads -- on distinct staging files.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned>(::getpid())) +
      "." + std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string text = v.dump(indent);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = ok && std::fputc('\n', f) != EOF;
  ok = std::fflush(f) == 0 && ok;
  // fsync before the rename: rename(2) is atomic in the namespace but says
  // nothing about data durability, so without this a crash shortly after the
  // rename could leave the *visible* file empty or torn.  With it, once the
  // new name exists its content is complete on stable storage.
  ok = ok && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

}  // namespace pgmcml::obs::json
