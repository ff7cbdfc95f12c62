// The JSON reader against its one job: reading back exactly what
// json_writer.h produces. Round-trips pin number fidelity (%.17g), escape
// handling, nesting and document order; the error cases pin the
// InvalidArgument-with-byte-offset contract and the depth cap.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "obs/json_reader.h"
#include "obs/json_writer.h"

namespace pathix::obs {
namespace {

TEST(JsonReaderTest, ScalarsAndTypes) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_TRUE(ParseJson("true").value().AsBool());
  EXPECT_FALSE(ParseJson("false").value().AsBool(true));
  EXPECT_DOUBLE_EQ(ParseJson("-12.5e2").value().AsNumber(), -1250);
  for (const char* number : {"0", "-0", "0.5", "1E+2", "2e-3", "10"}) {
    EXPECT_TRUE(ParseJson(number).ok()) << number;
  }
  EXPECT_EQ(ParseJson("\"hi\"").value().AsString(), "hi");
  EXPECT_TRUE(ParseJson("  [1, 2]  ").value().is_array());
  EXPECT_TRUE(ParseJson("{}").value().is_object());
}

TEST(JsonReaderTest, ObjectLookupsAndFallbacks) {
  Result<JsonValue> v =
      ParseJson(R"({"a": 1, "b": "x", "c": true, "d": null})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value().NumberAt("a"), 1);
  EXPECT_EQ(v.value().StringAt("b"), "x");
  EXPECT_TRUE(v.value().BoolAt("c"));
  EXPECT_TRUE(v.value().Has("d"));
  EXPECT_FALSE(v.value().Has("e"));
  EXPECT_DOUBLE_EQ(v.value().NumberAt("e", 7), 7);
  EXPECT_EQ(v.value().StringAt("a", "fb"), "fb");  // wrong type -> fallback
  ASSERT_NE(v.value().Find("d"), nullptr);
  EXPECT_TRUE(v.value().Find("d")->is_null());
}

TEST(JsonReaderTest, MembersKeepDocumentOrder) {
  Result<JsonValue> v = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v.value().members().size(), 3u);
  EXPECT_EQ(v.value().members()[0].first, "z");
  EXPECT_EQ(v.value().members()[1].first, "a");
  EXPECT_EQ(v.value().members()[2].first, "m");
}

TEST(JsonReaderTest, EscapesAndUnicode) {
  Result<JsonValue> v = ParseJson(R"("a\"b\\c\nd\u0041")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsString(), "a\"b\\c\ndA");
  // Multi-byte UTF-8 from \u escapes.
  EXPECT_EQ(ParseJson(R"("\u00e9")").value().AsString(), "\xc3\xa9");
}

TEST(JsonReaderTest, RoundTripsTheWriter) {
  JsonWriter w;
  w.BeginObject()
      .Key("pi").Value(3.141592653589793)
      .Key("neg").Value(-0.0625)
      .Key("big").Value(1e18)
      .Key("denorm").Value(std::numeric_limits<double>::denorm_min())
      .Key("subnormal").Value(std::numeric_limits<double>::min() / 4)
      .Key("n").Value(static_cast<std::uint64_t>(1234567890123456789ULL))
      .Key("s").Value(std::string("sp\"ec\\ial\n"))
      .Key("flag").Value(true)
      .Key("nothing").Null();
  w.Key("arr").BeginArray().Value(1.0).Value(2.0).EndArray();
  w.Key("nested").BeginObject().Key("k").Value("v").EndObject();
  w.EndObject();

  Result<JsonValue> v = ParseJson(w.str());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v.value().NumberAt("pi"), 3.141592653589793);
  EXPECT_DOUBLE_EQ(v.value().NumberAt("neg"), -0.0625);
  EXPECT_DOUBLE_EQ(v.value().NumberAt("big"), 1e18);
  // Subnormals come back bit-exact (strtod flags their underflow).
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v.value().NumberAt("denorm")),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v.value().NumberAt("subnormal")),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::min() / 4));
  EXPECT_DOUBLE_EQ(v.value().NumberAt("n"), 1234567890123456789.0);
  EXPECT_EQ(v.value().StringAt("s"), "sp\"ec\\ial\n");
  EXPECT_TRUE(v.value().BoolAt("flag"));
  EXPECT_TRUE(v.value().Find("nothing")->is_null());
  ASSERT_EQ(v.value().Find("arr")->array().size(), 2u);
  EXPECT_EQ(v.value().Find("nested")->StringAt("k"), "v");
  // The writer renders non-finite doubles as null; the reader sees null.
  JsonWriter w2;
  w2.BeginObject().Key("inf").Value(std::numeric_limits<double>::infinity());
  w2.EndObject();
  EXPECT_TRUE(ParseJson(w2.str()).value().Find("inf")->is_null());
}

TEST(JsonReaderTest, ErrorsCarryByteOffsets) {
  const auto expect_invalid = [](const char* text) {
    Result<JsonValue> v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << text;
    EXPECT_NE(v.status().ToString().find("at byte"), std::string::npos);
  };
  expect_invalid("");
  expect_invalid("{");
  expect_invalid("[1,]");
  expect_invalid("{\"a\" 1}");
  expect_invalid("\"unterminated");
  expect_invalid("tru");
  expect_invalid("1 2");  // trailing garbage
  expect_invalid("\"\\u12\"");
  expect_invalid("\"\\ud800\"");  // lone surrogate
  // Numbers outside RFC 8259's grammar, which strtod alone would take.
  for (const char* number : {"+1", "01", ".5", "1.", "-", "1e", "1e+"}) {
    expect_invalid(number);
  }
  expect_invalid("1e999");  // overflows a double
}

TEST(JsonReaderTest, DepthCapRejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string ok_depth(40, '[');
  ok_depth += std::string(40, ']');
  EXPECT_TRUE(ParseJson(ok_depth).ok());
}

}  // namespace
}  // namespace pathix::obs
