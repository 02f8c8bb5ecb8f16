#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "types/data_type.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/update_descriptor.h"
#include "types/value.h"

namespace tman {
namespace {

TEST(DataTypeTest, Names) {
  EXPECT_EQ(DataTypeName(DataType::kInt), "int");
  EXPECT_EQ(DataTypeName(DataType::kVarchar), "varchar");
}

TEST(DataTypeTest, FromName) {
  EXPECT_EQ(*DataTypeFromName("INT"), DataType::kInt);
  EXPECT_EQ(*DataTypeFromName("integer"), DataType::kInt);
  EXPECT_EQ(*DataTypeFromName("Float"), DataType::kFloat);
  EXPECT_EQ(*DataTypeFromName("char"), DataType::kChar);
  EXPECT_EQ(*DataTypeFromName("VARCHAR"), DataType::kVarchar);
  EXPECT_FALSE(DataTypeFromName("blob").ok());
}

TEST(DataTypeTest, Comparability) {
  EXPECT_TRUE(Comparable(DataType::kInt, DataType::kFloat));
  EXPECT_TRUE(Comparable(DataType::kChar, DataType::kVarchar));
  EXPECT_FALSE(Comparable(DataType::kInt, DataType::kVarchar));
}

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(v, Value::Null());
}

TEST(ValueTest, IntFloatCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3), Value::Float(3.0));
  EXPECT_LT(Value::Int(3), Value::Float(3.5));
  EXPECT_GT(Value::Float(4.1), Value::Int(4));
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc"), Value::String("abd"));
  EXPECT_EQ(Value::String("x"), Value::String("x"));
}

TEST(ValueTest, NullOrdering) {
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Null(), Value::String(""));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Float(3.0).Hash());
  EXPECT_EQ(Value::String("hi").Hash(), Value::String("hi").Hash());
  EXPECT_NE(Value::String("hi").Hash(), Value::String("ho").Hash());
}

TEST(ValueTest, CastToInt) {
  EXPECT_EQ(Value::String("42").CastTo(DataType::kInt)->as_int(), 42);
  EXPECT_EQ(Value::Float(3.9).CastTo(DataType::kInt)->as_int(), 3);
  EXPECT_FALSE(Value::String("abc").CastTo(DataType::kInt).ok());
  EXPECT_FALSE(Value::String("12x").CastTo(DataType::kInt).ok());
}

TEST(ValueTest, CastToFloatAndString) {
  EXPECT_DOUBLE_EQ(Value::String("2.5").CastTo(DataType::kFloat)->as_float(),
                   2.5);
  EXPECT_EQ(Value::Int(7).CastTo(DataType::kVarchar)->as_string(), "7");
  EXPECT_TRUE(Value::Null().CastTo(DataType::kInt)->is_null());
}

TEST(ValueTest, ToStringQuotesAndEscapes) {
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("it's").ToString(), "'it''s'");
}

TEST(ValueTest, FloatToStringRoundTrips) {
  double v = 0.1 + 0.2;  // not exactly 0.3
  std::string s = Value::Float(v).ToString();
  EXPECT_EQ(std::stod(s), v);
}

TEST(ValueVectorTest, CompareLexicographic) {
  std::vector<Value> a{Value::Int(1), Value::String("b")};
  std::vector<Value> b{Value::Int(1), Value::String("c")};
  std::vector<Value> c{Value::Int(1)};
  EXPECT_LT(CompareValues(a, b), 0);
  EXPECT_GT(CompareValues(b, a), 0);
  EXPECT_GT(CompareValues(a, c), 0);  // longer wins on equal prefix
  EXPECT_EQ(CompareValues(a, a), 0);
}

TEST(ValueVectorTest, HashValuesOrderSensitive) {
  std::vector<Value> a{Value::Int(1), Value::Int(2)};
  std::vector<Value> b{Value::Int(2), Value::Int(1)};
  EXPECT_NE(HashValues(a), HashValues(b));
  EXPECT_EQ(HashValues(a), HashValues(a));
}

TEST(SchemaTest, FieldLookupCaseInsensitive) {
  Schema s({{"Hno", DataType::kInt}, {"Address", DataType::kVarchar, 64}});
  EXPECT_EQ(s.FieldIndex("hno"), 0);
  EXPECT_EQ(s.FieldIndex("ADDRESS"), 1);
  EXPECT_EQ(s.FieldIndex("zip"), -1);
  EXPECT_TRUE(s.RequireField("address").ok());
  EXPECT_FALSE(s.RequireField("zip").ok());
}

TEST(SchemaTest, ToStringShowsWidths) {
  Schema s({{"a", DataType::kVarchar, 30}});
  EXPECT_EQ(s.ToString(), "(a varchar(30))");
}

TEST(TupleTest, SerializeRoundTrip) {
  Tuple t({Value::Int(42), Value::Null(), Value::Float(2.5),
           Value::String("hello world")});
  std::string buf;
  t.Serialize(&buf);
  size_t pos = 0;
  auto back = Tuple::Deserialize(buf, &pos);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(*back, t);
}

TEST(TupleTest, SerializeEmptyTuple) {
  Tuple t;
  std::string buf;
  t.Serialize(&buf);
  size_t pos = 0;
  auto back = Tuple::Deserialize(buf, &pos);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

TEST(TupleTest, SerializeBinaryStringContents) {
  std::string binary("\x00\x01\xff\x27", 4);
  Tuple t({Value::String(binary)});
  std::string buf;
  t.Serialize(&buf);
  size_t pos = 0;
  auto back = Tuple::Deserialize(buf, &pos);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0).as_string(), binary);
}

TEST(TupleTest, DeserializeTruncatedFails) {
  Tuple t({Value::Int(1), Value::String("abc")});
  std::string buf;
  t.Serialize(&buf);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    size_t pos = 0;
    auto r = Tuple::Deserialize(std::string_view(buf.data(), cut), &pos);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

TEST(TupleTest, CompareSerializedMatchesCompareValues) {
  // Every pair over values whose order ties or nests across encodings:
  // NULL, int/float of equal value, int64 extremes, NaN, the empty string,
  // prefix strings and bytes above 0x7f; as 1- and 2-column keys, so that
  // prefix keys and column-by-column ties occur.
  const std::vector<Value> atoms = {
      Value::Null(),           Value::Int(-3),
      Value::Int(2),           Value::Float(2.0),
      Value::Float(2.5),       Value::Float(-0.0),
      Value::Int(0),           Value::Int(INT64_MAX),
      Value::Int(INT64_MIN),   Value::Float(std::nan("")),
      Value::String(""),       Value::String("ab"),
      Value::String("abc"),    Value::String("\xff"),
  };
  std::vector<std::vector<Value>> keys = {{}};
  for (const Value& a : atoms) {
    keys.push_back({a});
    for (const Value& b : {Value::Null(), Value::Int(2), Value::String("")}) {
      keys.push_back({a, b});
    }
  }
  for (const auto& stored : keys) {
    std::string bytes;
    Tuple(stored).Serialize(&bytes);
    for (const auto& target : keys) {
      EXPECT_EQ(Tuple::CompareSerialized(bytes, target),
                CompareValues(stored, target))
          << ValuesToString(stored) << " vs " << ValuesToString(target);
    }
  }
}

TEST(TupleTest, CoerceToSchemaCastsAndValidates) {
  Schema s({{"a", DataType::kInt}, {"b", DataType::kVarchar}});
  auto ok = CoerceToSchema(Tuple({Value::String("5"), Value::Int(9)}), s);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->at(0).as_int(), 5);
  EXPECT_EQ(ok->at(1).as_string(), "9");

  EXPECT_FALSE(CoerceToSchema(Tuple({Value::Int(1)}), s).ok());  // arity
  EXPECT_FALSE(
      CoerceToSchema(Tuple({Value::String("xy"), Value::Int(1)}), s).ok());
}

TEST(UpdateDescriptorTest, FactoryAndEffectiveTuple) {
  Tuple t1({Value::Int(1)});
  Tuple t2({Value::Int(2)});
  auto ins = UpdateDescriptor::Insert(7, t1);
  EXPECT_EQ(ins.op, OpCode::kInsert);
  EXPECT_EQ(ins.EffectiveTuple(), t1);

  auto del = UpdateDescriptor::Delete(7, t1);
  EXPECT_EQ(del.EffectiveTuple(), t1);

  auto upd = UpdateDescriptor::Update(7, t1, t2);
  EXPECT_EQ(upd.EffectiveTuple(), t2);  // new image drives matching
  EXPECT_EQ(*upd.old_tuple, t1);
}

TEST(UpdateDescriptorTest, SerializeRoundTrip) {
  auto upd = UpdateDescriptor::Update(
      99, Tuple({Value::Int(1), Value::String("a")}),
      Tuple({Value::Int(2), Value::String("b")}));
  std::string buf;
  upd.Serialize(&buf);
  auto back = UpdateDescriptor::Deserialize(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data_source, 99u);
  EXPECT_EQ(back->op, OpCode::kUpdate);
  EXPECT_EQ(*back->old_tuple, *upd.old_tuple);
  EXPECT_EQ(*back->new_tuple, *upd.new_tuple);
}

TEST(UpdateDescriptorTest, OpMatchesSemantics) {
  EXPECT_TRUE(OpMatches(OpCode::kInsert, OpCode::kInsert));
  EXPECT_FALSE(OpMatches(OpCode::kInsert, OpCode::kUpdate));
  EXPECT_TRUE(OpMatches(OpCode::kInsertOrUpdate, OpCode::kInsert));
  EXPECT_TRUE(OpMatches(OpCode::kInsertOrUpdate, OpCode::kUpdate));
  EXPECT_FALSE(OpMatches(OpCode::kInsertOrUpdate, OpCode::kDelete));
  EXPECT_TRUE(OpMatches(OpCode::kDelete, OpCode::kDelete));
}

}  // namespace
}  // namespace tman
