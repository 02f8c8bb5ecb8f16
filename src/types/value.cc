#include "types/value.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tman {

DataType Value::type() const {
  if (is_int()) return DataType::kInt;
  if (is_float()) return DataType::kFloat;
  return DataType::kVarchar;
}

int Value::Compare(const Value& other) const {
  // NULL ordering: NULL == NULL, NULL < non-NULL.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      int64_t a = as_int();
      int64_t b = other.as_int();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    int c = as_string().compare(other.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Mixed numeric/string: order by type tag for index stability.
  int a = is_string() ? 1 : 0;
  int b = other.is_string() ? 1 : 0;
  return a - b;
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x9ae16a3b2f90404fULL;
  if (is_numeric()) {
    // Hash ints and integral floats identically so 3 == 3.0 stays
    // consistent between Compare and Hash.
    double d = AsDouble();
    double integral;
    if (std::modf(d, &integral) == 0.0 && integral >= -9.2e18 &&
        integral <= 9.2e18) {
      auto i = static_cast<int64_t>(integral);
      return MixInt(static_cast<uint64_t>(i) ^ 0x2545f4914f6cdd1dULL);
    }
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return MixInt(bits);
  }
  return HashString(as_string());
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null()) return Value::Null();
  switch (target) {
    case DataType::kInt: {
      if (is_int()) return *this;
      if (is_float()) return Value::Int(static_cast<int64_t>(as_float()));
      errno = 0;
      char* end = nullptr;
      const std::string& s = as_string();
      long long v = std::strtoll(s.c_str(), &end, 10);
      if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
        return Status::TypeError("cannot cast '" + s + "' to int");
      }
      return Value::Int(v);
    }
    case DataType::kFloat: {
      if (is_float()) return *this;
      if (is_int()) return Value::Float(static_cast<double>(as_int()));
      errno = 0;
      char* end = nullptr;
      const std::string& s = as_string();
      double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
        return Status::TypeError("cannot cast '" + s + "' to float");
      }
      return Value::Float(v);
    }
    case DataType::kChar:
    case DataType::kVarchar: {
      if (is_string()) return *this;
      return Value::String(ToString());
    }
  }
  return Status::TypeError("unknown cast target");
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(as_int());
  if (is_float()) {
    // %.17g round-trips every double exactly; predicates rendered to text
    // (constant tables, catalogs) must re-parse to the same value.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", as_float());
    return buf;
  }
  // SQL-style quoting with '' escaping embedded quotes.
  std::string out = "'";
  for (char c : as_string()) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

uint64_t HashValues(const std::vector<Value>& values) {
  return HashValuesAt(values.size(),
                      [&](size_t i) -> const Value& { return values[i]; });
}

int CompareValues(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

std::string ValuesToString(const std::vector<Value>& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace tman
