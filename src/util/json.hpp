// Minimal JSON document model, parser, and writer.
//
// iotsan uses JSON for deployment configurations (the output of the paper's
// Configuration Extractor, §7) and for IFTTT applets (§11).  This parser
// supports the full JSON grammar plus two ergonomic extensions used by the
// bundled configuration files: // line comments and trailing commas.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace iotsan::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps object keys ordered, which makes serialized output and
/// error messages deterministic.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// A JSON value.  Small enough to copy; arrays/objects use value semantics.
class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double d) : type_(Type::kNumber), number_(d) {}  // NOLINT
  Value(int i) : type_(Type::kNumber), number_(i) {}  // NOLINT
  Value(std::int64_t i)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Value(std::string s);  // NOLINT
  Value(const char* s);  // NOLINT
  Value(Array a);        // NOLINT
  Value(Object o);       // NOLINT

  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw iotsan::Error on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;
  Array& MutableArray();
  Object& MutableObject();

  /// Object member lookup; throws if not an object or key missing.
  const Value& At(std::string_view key) const;
  /// True if this is an object containing `key`.
  bool Has(std::string_view key) const;
  /// Returns the member or `fallback` if absent.
  const Value& GetOr(std::string_view key, const Value& fallback) const;

  /// Convenience getters with defaults, for config parsing.
  std::string GetString(std::string_view key, std::string_view dflt = "") const;
  double GetNumber(std::string_view key, double dflt = 0) const;
  bool GetBool(std::string_view key, bool dflt = false) const;

  /// Checked integer read for numbers from outside the process (request
  /// bodies, cache and registry files, worker replies, artifacts): the
  /// value must be a finite, integral number within [min, max].  Throws
  /// iotsan::Error quoting the value otherwise ("wants an integer, got
  /// 2.5", "wants a value in [1, 64], got 1e+300").
  template <std::integral T>
  T AsInteger(T min = std::numeric_limits<T>::min(),
              T max = std::numeric_limits<T>::max()) const {
    const double d = IntegralNumber();
    // 2^digits is exact in a double and one past T's largest value, so
    // a number inside the bounds converts to T without overflow.
    const double bound = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (d >= (std::is_signed_v<T> ? -bound : 0.0) && d < bound) {
      const T n = static_cast<T>(d);
      if (n >= min && n <= max) return n;
    }
    OutOfRange(std::to_string(min), std::to_string(max));
  }
  /// At(key).AsInteger<T>(), or `dflt` when the member is absent.
  template <std::integral T>
  T GetInteger(std::string_view key, T dflt = 0) const {
    return Has(key) ? At(key).AsInteger<T>() : dflt;
  }

  /// Serializes this value.  `indent` 0 emits compact JSON; otherwise
  /// pretty-printed with that many spaces per level.
  std::string Dump(int indent = 0) const;

  bool operator==(const Value& other) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;

  void CopyFrom(const Value& other);
  /// The number, if finite and integral; throws iotsan::Error otherwise.
  double IntegralNumber() const;
  [[noreturn]] void OutOfRange(const std::string& min,
                               const std::string& max) const;
  void DumpTo(std::string& out, int indent, int depth) const;
};

/// Deepest array/object nesting Parse accepts.  The parser recurses once
/// per level, so the bound keeps hostile input (HTTP bodies, cache,
/// registry and cluster files) from exhausting the stack.
inline constexpr int kMaxDepth = 256;

/// Parses `text` into a Value.  Throws iotsan::ParseError with
/// line/column context on malformed input, including nesting deeper
/// than kMaxDepth.
Value Parse(std::string_view text);

}  // namespace iotsan::json
