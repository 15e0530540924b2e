#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace toast::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.type = Value::Type::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("bad literal");
        }
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("bad \\u escape");
          }
          const unsigned long cp =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Keep it simple: encode BMP code points as UTF-8.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    Value v;
    v.type = Value::Type::kNumber;
    char* end = nullptr;
    const std::string num = text_.substr(start, pos_ - start);
    v.number = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number: " + num);
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Value load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return Value::parse(buf.str());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string range(double lo, double hi) {
  return hi == Reader::kInf ? ">= " + fmt(lo)
                            : "in [" + fmt(lo) + ", " + fmt(hi) + "]";
}

}  // namespace

Reader::Reader(const Value& v, std::string path)
    : v_(&v), path_(std::move(path)) {
  if (!v.is_object()) {
    fail("", "must be an object");
  }
}

Reader Reader::document(const Value& v, std::string path,
                        const char* schema) {
  Reader r(v, std::move(path));
  const Value* s = v.find("schema");
  if (s == nullptr || !s->is_string() || s->string != schema) {
    r.fail("schema", std::string("must be \"") + schema + "\"");
  }
  return r;
}

void Reader::fail(const std::string& key, const std::string& rule) const {
  throw SchemaError((key.empty() ? path_ : path_ + "." + key) + ": " + rule);
}

void Reader::keys(std::initializer_list<const char*> known) const {
  for (const auto& member : v_->object) {
    if (std::find(known.begin(), known.end(), member.first) == known.end()) {
      std::string expected;
      for (const char* k : known) {
        expected += (expected.empty() ? "" : ", ") + std::string(k);
      }
      fail(member.first, "unknown key (expected one of: " + expected + ")");
    }
  }
}

std::string Reader::string(const char* key) const {
  const Value* m = v_->find(key);
  if (m == nullptr || !m->is_string()) {
    fail(key, m == nullptr ? "is required" : "must be a string");
  }
  return m->string;
}

std::string Reader::string_or(const char* key,
                              const std::string& fallback) const {
  return has(key) ? string(key) : fallback;
}

bool Reader::bool_or(const char* key, bool fallback) const {
  const Value* m = v_->find(key);
  if (m == nullptr) {
    return fallback;
  }
  if (m->type != Value::Type::kBool) {
    fail(key, "must be true or false");
  }
  return m->boolean;
}

double Reader::number_or(const char* key, double fallback, double lo,
                         double hi) const {
  const Value* m = v_->find(key);
  if (m == nullptr) {
    return fallback;
  }
  if (!m->is_number() || !std::isfinite(m->number) || m->number < lo ||
      m->number > hi) {
    fail(key, "must be a finite number " + range(lo, hi));
  }
  return m->number;
}

const Value* Reader::integer(const char* key, double lo, double hi) const {
  const Value* m = v_->find(key);
  // Range-check the double before any cast: converting an out-of-range
  // double to an integer type is undefined behaviour.
  if (m != nullptr && (!m->is_number() || std::floor(m->number) != m->number ||
                       m->number < lo || m->number > hi)) {
    fail(key, "must be an integer " + range(lo, hi));
  }
  return m;
}

int Reader::integer_or(const char* key, int fallback, int lo, int hi) const {
  const Value* m = integer(key, lo, hi);
  return m == nullptr ? fallback : static_cast<int>(m->number);
}

std::uint64_t Reader::seed_or(const char* key,
                              std::uint64_t fallback) const {
  const Value* m = integer(key, 0.0, 0x1p53);
  return m == nullptr ? fallback : static_cast<std::uint64_t>(m->number);
}

std::optional<Reader> Reader::object(const char* key) const {
  const Value* m = v_->find(key);
  if (m == nullptr) {
    return std::nullopt;
  }
  return Reader(*m, path_ + "." + key);
}

std::vector<Reader> Reader::array(const char* key) const {
  std::vector<Reader> out;
  const Value* m = v_->find(key);
  if (m == nullptr) {
    return out;
  }
  if (!m->is_array()) {
    fail(key, "must be an array");
  }
  for (std::size_t i = 0; i < m->array.size(); ++i) {
    out.emplace_back(m->array[i],
                     path_ + "." + key + "[" + std::to_string(i) + "]");
  }
  return out;
}

}  // namespace toast::obs::json
