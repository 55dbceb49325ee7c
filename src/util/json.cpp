#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace iotsan::json {

Value::Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
Value::Value(const char* s) : type_(Type::kString), string_(s) {}
Value::Value(Array a)
    : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
Value::Value(Object o)
    : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

void Value::CopyFrom(const Value& other) {
  type_ = other.type_;
  bool_ = other.bool_;
  number_ = other.number_;
  string_ = other.string_;
  // Deep copies preserve value semantics: mutating one copy must never
  // affect another.
  array_ = other.array_ ? std::make_shared<Array>(*other.array_) : nullptr;
  object_ = other.object_ ? std::make_shared<Object>(*other.object_) : nullptr;
}

Value::Value(const Value& other) { CopyFrom(other); }

Value::Value(Value&& other) noexcept = default;

Value& Value::operator=(const Value& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept = default;

namespace {
[[noreturn]] void TypeMismatch(const char* want, Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw Error(std::string("JSON type mismatch: wanted ") + want + ", got " +
              kNames[static_cast<int>(got)]);
}
}  // namespace

bool Value::AsBool() const {
  if (type_ != Type::kBool) TypeMismatch("bool", type_);
  return bool_;
}

double Value::AsNumber() const {
  if (type_ != Type::kNumber) TypeMismatch("number", type_);
  return number_;
}

std::int64_t Value::AsInt() const {
  return static_cast<std::int64_t>(std::llround(AsNumber()));
}

namespace {
/// The value as it would have been sent: numbers in their shortest
/// round-trip form (Dump's %.17g would turn 0.4 into 0.40000000000000002).
std::string QuoteValue(const Value& value) {
  if (!value.is_number()) return value.Dump(0);
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), value.AsNumber());
  return ec == std::errc() ? std::string(buf, end) : value.Dump(0);
}
}  // namespace

double Value::IntegralNumber() const {
  if (type_ != Type::kNumber || !std::isfinite(number_) ||
      number_ != std::trunc(number_)) {
    throw Error("wants an integer, got " + QuoteValue(*this));
  }
  return number_;
}

void Value::OutOfRange(const std::string& min, const std::string& max) const {
  throw Error("wants a value in [" + min + ", " + max + "], got " +
              QuoteValue(*this));
}

const std::string& Value::AsString() const {
  if (type_ != Type::kString) TypeMismatch("string", type_);
  return string_;
}

const Array& Value::AsArray() const {
  if (type_ != Type::kArray) TypeMismatch("array", type_);
  return *array_;
}

const Object& Value::AsObject() const {
  if (type_ != Type::kObject) TypeMismatch("object", type_);
  return *object_;
}

Array& Value::MutableArray() {
  if (type_ != Type::kArray) TypeMismatch("array", type_);
  return *array_;
}

Object& Value::MutableObject() {
  if (type_ != Type::kObject) TypeMismatch("object", type_);
  return *object_;
}

const Value& Value::At(std::string_view key) const {
  const Object& obj = AsObject();
  auto it = obj.find(std::string(key));
  if (it == obj.end()) {
    throw Error("JSON object has no member '" + std::string(key) + "'");
  }
  return it->second;
}

bool Value::Has(std::string_view key) const {
  return type_ == Type::kObject &&
         object_->find(std::string(key)) != object_->end();
}

const Value& Value::GetOr(std::string_view key, const Value& fallback) const {
  if (!Has(key)) return fallback;
  return At(key);
}

std::string Value::GetString(std::string_view key,
                             std::string_view dflt) const {
  if (!Has(key)) return std::string(dflt);
  return At(key).AsString();
}

double Value::GetNumber(std::string_view key, double dflt) const {
  if (!Has(key)) return dflt;
  return At(key).AsNumber();
}

bool Value::GetBool(std::string_view key, bool dflt) const {
  if (!Has(key)) return dflt;
  return At(key).AsBool();
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return *array_ == *other.array_;
    case Type::kObject:
      return *object_ == *other.object_;
  }
  return false;
}

namespace {

void EscapeTo(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      char buf[64];
      if (number_ == std::floor(number_) && std::abs(number_) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
      }
      out += buf;
      break;
    }
    case Type::kString:
      EscapeTo(out, string_);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& v : *array_) {
        if (!first) out += ',';
        first = false;
        Newline(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_->empty()) Newline(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, v] : *object_) {
        if (!first) out += ',';
        first = false;
        Newline(out, indent, depth + 1);
        EscapeTo(out, key);
        out += indent > 0 ? ": " : ":";
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_->empty()) Newline(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

/// Hand-rolled recursive-descent JSON parser with position tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing content after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  int depth_ = 0;  // open arrays/objects
  std::size_t pos_ = 0;

  [[noreturn]] void Fail(const std::string& message) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError("JSON parse error at line " + std::to_string(line) +
                     ", column " + std::to_string(col) + ": " + message);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (!AtEnd() && Peek() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void Expect(char c) {
    if (AtEnd() || Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool TryConsume(char c) {
    if (!AtEnd() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value ParseValue() {
    SkipWhitespace();
    if (AtEnd()) Fail("unexpected end of input");
    char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        Value nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': return Value(ParseString());
      case 't': return ParseKeyword("true", Value(true));
      case 'f': return ParseKeyword("false", Value(false));
      case 'n': return ParseKeyword("null", Value(nullptr));
      default: return ParseNumber();
    }
  }

  Value ParseKeyword(std::string_view word, Value value) {
    if (text_.substr(pos_, word.size()) != word) {
      Fail("invalid literal");
    }
    pos_ += word.size();
    return value;
  }

  Value ParseNumber() {
    std::size_t start = pos_;
    if (TryConsume('-')) {
    }
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) Fail("invalid number");
    return Value(v);
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (AtEnd()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (AtEnd()) Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else Fail("bad \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: Fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Value ParseArray() {
    Expect('[');
    Array items;
    SkipWhitespace();
    if (TryConsume(']')) return Value(std::move(items));
    while (true) {
      items.push_back(ParseValue());
      SkipWhitespace();
      if (TryConsume(',')) {
        SkipWhitespace();
        if (TryConsume(']')) break;  // trailing comma extension
        continue;
      }
      Expect(']');
      break;
    }
    return Value(std::move(items));
  }

  Value ParseObject() {
    Expect('{');
    Object members;
    SkipWhitespace();
    if (TryConsume('}')) return Value(std::move(members));
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      members[std::move(key)] = ParseValue();
      SkipWhitespace();
      if (TryConsume(',')) {
        SkipWhitespace();
        if (TryConsume('}')) break;  // trailing comma extension
        continue;
      }
      Expect('}');
      break;
    }
    return Value(std::move(members));
  }
};

}  // namespace

Value Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace iotsan::json
