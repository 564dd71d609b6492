// The server's minimal RFC 8259 JSON layer: strict parsing, exact double
// round-trips (the wire format must preserve bit-identical aggregates),
// escaping, and the protocol-facing convenience accessors.

#include "server/json.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace acquire {
namespace {

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  return parsed.ok() ? *parsed : JsonValue::Null();
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool());
  EXPECT_DOUBLE_EQ(MustParse("-12.5e2").AsDouble(), -1250.0);
  EXPECT_EQ(MustParse("\"hi\\n\\\"there\\\"\"").AsString(), "hi\n\"there\"");
}

TEST(JsonTest, ParsesNestedStructures) {
  JsonValue v = MustParse(
      "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":false},\"e\":\"x\"}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsDouble(), 2.0);
  EXPECT_TRUE(a->AsArray()[2].Get("b")->is_null());
  EXPECT_EQ(v.GetString("e"), "x");
  EXPECT_EQ(v.Get("missing"), nullptr);
}

TEST(JsonTest, UnicodeEscapes) {
  // \u00e9 is U+00E9 (two UTF-8 bytes); the pair is a surrogate for U+1F600.
  EXPECT_EQ(MustParse("\"caf\\u00e9\"").AsString(), "caf\xC3\xA9");
  EXPECT_EQ(MustParse("\"\\ud83d\\ude00\"").AsString(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",        "{",       "[1,]",      "{\"a\":}",   "\"unterminated",
      "01",      "1.",      "+1",        "nul",        "truex",
      "{\"a\":1} extra",    "[1 2]",     "{\"a\" 1}",  "\"\\ud83d\"",
      "\"\x01\"",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << text;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, DoublesRoundTripExactly) {
  const double values[] = {0.0,       -0.0,     1.0 / 3.0,    6.02214076e23,
                           1e-300,    123456789.123456789,    -2.5,
                           3.14159265358979312,  1e15 - 1.0,  1e15 + 1.0};
  for (double v : values) {
    JsonValue wrapped = JsonValue::Number(v);
    JsonValue back = MustParse(wrapped.Dump());
    EXPECT_EQ(back.AsDouble(), v) << wrapped.Dump();
  }
}

TEST(JsonTest, IntegralDoublesPrintWithoutFraction) {
  EXPECT_EQ(JsonValue::Number(42.0).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(-7.0).Dump(), "-7");
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(JsonValue::Number(std::nan("")).Dump(), "null");
}

TEST(JsonTest, DumpEscapesControlCharactersAndStaysOneLine) {
  JsonValue v = JsonValue::Object();
  v.Set("s", JsonValue::Str("line1\nline2\ttab\x01"));
  const std::string dumped = v.Dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(dumped, "{\"s\":\"line1\\nline2\\ttab\\u0001\"}");
  EXPECT_EQ(MustParse(dumped).GetString("s"), "line1\nline2\ttab\x01");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndOverwrites) {
  JsonValue v = JsonValue::Object();
  v.Set("z", JsonValue::Number(1.0));
  v.Set("a", JsonValue::Number(2.0));
  v.Set("z", JsonValue::Number(3.0));  // overwrite keeps position
  EXPECT_EQ(v.Dump(), "{\"z\":3,\"a\":2}");
}

TEST(JsonTest, ConvenienceAccessorsFallBack) {
  JsonValue v = MustParse("{\"n\":5,\"s\":\"text\",\"b\":true}");
  EXPECT_DOUBLE_EQ(v.GetNumber("n", -1.0), 5.0);
  EXPECT_DOUBLE_EQ(v.GetNumber("s", -1.0), -1.0);  // type mismatch
  EXPECT_DOUBLE_EQ(v.GetNumber("missing", -1.0), -1.0);
  EXPECT_EQ(v.GetString("s"), "text");
  EXPECT_EQ(v.GetString("n", "fb"), "fb");
  EXPECT_TRUE(v.GetBool("b", false));
  EXPECT_TRUE(v.GetBool("missing", true));
}

TEST(JsonTest, RoundTripThroughDump) {
  const std::string text =
      "{\"id\":\"s-1\",\"ok\":true,\"vals\":[1.5,null,\"x\"],"
      "\"nested\":{\"deep\":[{}]}}";
  JsonValue v = MustParse(text);
  EXPECT_EQ(MustParse(v.Dump()).Dump(), v.Dump());
}

// A representative PROGRESS frame — the streaming protocol's second line
// kind — survives Parse(Dump) with every field intact, including the
// exact doubles a client keys its early-stop rules on.
TEST(JsonTest, ProgressFrameSchemaRoundTrips) {
  const std::string frame_line =
      "{\"progress\":true,\"id\":\"s-7\",\"tenant\":\"default\","
      "\"layers_drained\":12,\"queries_explored\":345,\"cell_queries\":345,"
      "\"elapsed_ms\":1.25,"
      "\"best\":{\"qscore\":6.5,\"aggregate\":1203,\"error\":0.0033,"
      "\"refined\":\"age <= 30 AND income >= 52000\"},"
      "\"eval_queries\":345,\"tuples_scanned\":98765,\"prepare_ms\":0.5,"
      "\"governor\":{\"active_slots\":1,\"slot_limit\":2,"
      "\"memory_share_bytes\":1048576,\"running\":1,\"queued\":0}}";
  JsonValue frame = MustParse(frame_line);
  EXPECT_EQ(frame.Dump(), frame_line);
  EXPECT_EQ(MustParse(frame.Dump()).Dump(), frame_line);
  // The marker that separates frames from terminal replies.
  EXPECT_TRUE(frame.GetBool("progress", false));
  EXPECT_EQ(frame.Get("ok"), nullptr);
  const JsonValue* best = frame.Get("best");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->GetNumber("error", -1.0), 0.0033);
  const JsonValue* governor = frame.Get("governor");
  ASSERT_NE(governor, nullptr);
  EXPECT_EQ(governor->GetNumber("memory_share_bytes", -1.0), 1048576.0);
  // A frame with no candidate yet carries best:null, still distinct from
  // "field absent".
  JsonValue no_best = MustParse("{\"progress\":true,\"best\":null}");
  ASSERT_NE(no_best.Get("best"), nullptr);
  EXPECT_TRUE(no_best.Get("best")->is_null());
}

}  // namespace
}  // namespace acquire
