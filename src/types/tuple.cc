#include "types/tuple.h"

#include <algorithm>
#include <cstring>

namespace tman {

namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagFloat = 2;
constexpr uint8_t kTagString = 3;

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetU32(std::string_view data, size_t* pos, uint32_t* v) {
  if (*pos + 4 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

template <typename T>
int Compare3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

void Tuple::Serialize(std::string* out) const {
  PutU32(out, static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) {
    if (v.is_null()) {
      out->push_back(static_cast<char>(kTagNull));
    } else if (v.is_int()) {
      out->push_back(static_cast<char>(kTagInt));
      PutU64(out, static_cast<uint64_t>(v.as_int()));
    } else if (v.is_float()) {
      out->push_back(static_cast<char>(kTagFloat));
      uint64_t bits;
      double d = v.as_float();
      std::memcpy(&bits, &d, 8);
      PutU64(out, bits);
    } else {
      out->push_back(static_cast<char>(kTagString));
      const std::string& s = v.as_string();
      PutU32(out, static_cast<uint32_t>(s.size()));
      out->append(s);
    }
  }
}

Result<Tuple> Tuple::Deserialize(std::string_view data, size_t* pos) {
  uint32_t count = 0;
  if (!GetU32(data, pos, &count)) {
    return Status::Corruption("tuple header truncated");
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (*pos >= data.size()) return Status::Corruption("tuple truncated");
    uint8_t tag = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    switch (tag) {
      case kTagNull:
        values.push_back(Value::Null());
        break;
      case kTagInt: {
        uint64_t raw;
        if (!GetU64(data, pos, &raw)) {
          return Status::Corruption("int value truncated");
        }
        values.push_back(Value::Int(static_cast<int64_t>(raw)));
        break;
      }
      case kTagFloat: {
        uint64_t raw;
        if (!GetU64(data, pos, &raw)) {
          return Status::Corruption("float value truncated");
        }
        double d;
        std::memcpy(&d, &raw, 8);
        values.push_back(Value::Float(d));
        break;
      }
      case kTagString: {
        uint32_t len;
        if (!GetU32(data, pos, &len) || *pos + len > data.size()) {
          return Status::Corruption("string value truncated");
        }
        values.push_back(
            Value::String(std::string(data.substr(*pos, len))));
        *pos += len;
        break;
      }
      default:
        return Status::Corruption("bad value tag");
    }
  }
  return Tuple(std::move(values));
}

int Tuple::CompareSerialized(std::string_view data,
                             const std::vector<Value>& target) {
  // Mirrors Value::Compare: NULL first; int/int exact, other numeric pairs
  // as doubles; every number before every string; then shorter first.
  size_t pos = 0;
  uint32_t count = 0;
  GetU32(data, &pos, &count);
  const size_t n = std::min<size_t>(count, target.size());
  for (size_t i = 0; i < n; ++i) {
    const Value& t = target[i];
    const uint8_t tag = static_cast<uint8_t>(data[pos++]);
    int c;
    if (tag == kTagNull) {
      c = t.is_null() ? 0 : -1;
    } else if (tag == kTagString) {
      uint32_t len = 0;
      GetU32(data, &pos, &len);
      std::string_view s = data.substr(pos, len);
      pos += len;
      c = t.is_string() ? Compare3(s.compare(t.as_string()), 0) : 1;
    } else {
      uint64_t raw = 0;
      GetU64(data, &pos, &raw);
      if (t.is_null()) {
        c = 1;
      } else if (t.is_string()) {
        c = -1;
      } else if (tag == kTagInt && t.is_int()) {
        c = Compare3(static_cast<int64_t>(raw), t.as_int());
      } else {
        double d;
        if (tag == kTagInt) {
          d = static_cast<double>(static_cast<int64_t>(raw));
        } else {
          std::memcpy(&d, &raw, 8);
        }
        c = Compare3(d, t.AsDouble());
      }
    }
    if (c != 0) return c;
  }
  if (count == target.size()) return 0;
  return count < target.size() ? -1 : 1;
}

Result<Tuple> CoerceToSchema(const Tuple& tuple, const Schema& schema) {
  if (tuple.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema arity " +
        std::to_string(schema.num_fields()));
  }
  std::vector<Value> out;
  out.reserve(tuple.size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    const Value& v = tuple.at(i);
    if (v.is_null()) {
      out.push_back(v);
      continue;
    }
    TMAN_ASSIGN_OR_RETURN(Value coerced, v.CastTo(schema.field(i).type));
    out.push_back(std::move(coerced));
  }
  return Tuple(std::move(out));
}

}  // namespace tman
