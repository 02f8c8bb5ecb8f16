#ifndef TRIGGERMAN_TYPES_VALUE_H_
#define TRIGGERMAN_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "types/data_type.h"
#include "util/hash.h"
#include "util/result.h"

namespace tman {

/// A single runtime value: NULL, 64-bit integer, double, or string.
/// Char and varchar share the string representation. Values are small,
/// copyable, and hashable; they are the currency of expression evaluation,
/// constant tables, and the predicate index.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Float(double v) { return Value(Payload(v)); }
  static Value String(std::string v) { return Value(Payload(std::move(v))); }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_float() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_float(); }

  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_float() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Borrowing accessors: payload pointer when the value currently holds
  /// that alternative, nullptr otherwise. One tag check, no throw path —
  /// preferred in evaluation inner loops.
  const int64_t* if_int() const { return std::get_if<int64_t>(&data_); }
  const double* if_float() const { return std::get_if<double>(&data_); }
  const std::string* if_string() const {
    return std::get_if<std::string>(&data_);
  }

  /// In-place mutation, avoiding a temporary Value on assignment-heavy
  /// paths (VM registers).
  void SetNull() { data_.emplace<std::monostate>(); }
  void SetInt(int64_t v) { data_.emplace<int64_t>(v); }
  void SetFloat(double v) { data_.emplace<double>(v); }

  /// Numeric value widened to double (int or float). Undefined for others.
  double AsDouble() const {
    return is_int() ? static_cast<double>(as_int()) : as_float();
  }

  /// Dynamic type of this value; NULL reports kVarchar by convention but
  /// callers should check is_null() first.
  DataType type() const;

  /// Three-way comparison. Returns <0, 0, >0. NULLs compare equal to each
  /// other and less than every non-NULL value (total order for indexing).
  /// Numeric values compare across int/float; comparing a numeric with a
  /// string orders by type tag (stable but arbitrary — expression
  /// evaluation rejects such comparisons before they get here).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable 64-bit hash, consistent with Compare (equal values hash equal;
  /// int 3 and float 3.0 hash the same).
  uint64_t Hash() const;

  /// Coerces this value to `target`. Int<->float widen/narrow; string
  /// conversions parse/print. Fails on lossy garbage (e.g. "abc" -> int).
  Result<Value> CastTo(DataType target) const;

  /// SQL-ish literal rendering: NULL, 42, 3.5, 'text'.
  std::string ToString() const;

 private:
  using Payload = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Payload p) : data_(std::move(p)) {}

  Payload data_;
};

/// Hash of a composite key (e.g. [const1..constK] in a constant table).
uint64_t HashValues(const std::vector<Value>& values);

/// HashValues of the key `at(0) .. at(n-1)`, read in place: a key spread
/// over a tuple's fields hashes without being gathered into a vector.
template <typename At>
uint64_t HashValuesAt(size_t n, At at) {
  uint64_t h = 0x51ed270b4d2f2c8dULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, at(i).Hash());
  return h;
}

/// Lexicographic comparison of two value vectors.
int CompareValues(const std::vector<Value>& a, const std::vector<Value>& b);

/// Renders "(v1, v2, ...)".
std::string ValuesToString(const std::vector<Value>& values);

}  // namespace tman

#endif  // TRIGGERMAN_TYPES_VALUE_H_
