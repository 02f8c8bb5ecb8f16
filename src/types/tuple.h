#ifndef TRIGGERMAN_TYPES_TUPLE_H_
#define TRIGGERMAN_TYPES_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace tman {

/// A row of values. Tuples are schema-agnostic containers; interpretation
/// (names -> positions) goes through a Schema at the call site.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  bool operator==(const Tuple& other) const {
    return CompareValues(values_, other.values_) == 0;
  }

  uint64_t Hash() const { return HashValues(values_); }

  /// Serializes into `out` (appended). Self-describing format; schema is
  /// only needed for validation, not decoding.
  void Serialize(std::string* out) const;

  /// Decodes a tuple previously produced by Serialize. `pos` is advanced
  /// past the consumed bytes.
  static Result<Tuple> Deserialize(std::string_view data, size_t* pos);

  /// Orders a well-formed Serialize()d tuple against `target` exactly as
  /// CompareValues(Deserialize(data)->values(), target) does, without
  /// decoding: no Value or vector is built, so index probes can compare
  /// stored keys in place.
  static int CompareSerialized(std::string_view data,
                               const std::vector<Value>& target);

  std::string ToString() const { return ValuesToString(values_); }

 private:
  std::vector<Value> values_;
};

/// Validates that tuple value types match the schema (NULL matches any) and
/// casts int<->float where the schema demands it. Returns the coerced tuple.
Result<Tuple> CoerceToSchema(const Tuple& tuple, const Schema& schema);

}  // namespace tman

#endif  // TRIGGERMAN_TYPES_TUPLE_H_
