#include "util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace anonsafe {
namespace json {
namespace {

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(Value().Dump(), "null");
  EXPECT_EQ(Value(true).Dump(), "true");
  EXPECT_EQ(Value(false).Dump(), "false");
  EXPECT_EQ(Value(std::string("hi")).Dump(), "\"hi\"");
  EXPECT_EQ(Value("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Value(int64_t{42}).Dump(), "42");
  EXPECT_EQ(Value(uint64_t{42}).Dump(), "42");
  EXPECT_EQ(Value(0.5).Dump(), "0.5");
  EXPECT_EQ(Value(-3.0).Dump(), "-3");
}

TEST(JsonTest, IntegralDoublesRenderWithoutFraction) {
  EXPECT_EQ(Value(10.0).Dump(), "10");
  EXPECT_EQ(Value(0.0).Dump(), "0");
  // 2^53 is the largest range where doubles are exact integers.
  EXPECT_EQ(Value(9007199254740992.0).Dump(), "9007199254740992");
}

TEST(JsonTest, ShortestRoundTripDoubles) {
  const double v = 0.09999999999999998;
  Value dumped(v);
  auto parsed = Value::Parse(dumped.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsDouble(), v);
  // And the re-dump is byte-identical — the bit-identity anchor.
  EXPECT_EQ(parsed->Dump(), dumped.Dump());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Value obj = Value::Object();
  obj.Set("z", Value(int64_t{1}));
  obj.Set("a", Value(int64_t{2}));
  obj.Set("m", Value(int64_t{3}));
  EXPECT_EQ(obj.Dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  // Replacing keeps the original slot.
  obj.Set("a", Value(int64_t{9}));
  EXPECT_EQ(obj.Dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(Value(std::string("a\"b\\c\n\t")).Dump(),
            "\"a\\\"b\\\\c\\n\\t\"");
  auto parsed = Value::Parse("\"a\\\"b\\\\c\\n\\t\\u0041\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\n\tA");
}

TEST(JsonTest, RoundTripNestedDocument) {
  const std::string text =
      "{\"a\":[1,2.5,true,null,\"x\"],\"b\":{\"c\":[],\"d\":{}}}";
  auto parsed = Value::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("").ok());
  EXPECT_FALSE(Value::Parse("{").ok());
  EXPECT_FALSE(Value::Parse("tru").ok());
  EXPECT_FALSE(Value::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Value::Parse("[1 2]").ok());
  EXPECT_FALSE(Value::Parse("\"unterminated").ok());
  EXPECT_FALSE(Value::Parse("1e999").ok());   // non-finite
  EXPECT_FALSE(Value::Parse("{} extra").ok());  // trailing garbage
  EXPECT_FALSE(Value::Parse("\"bad \\q escape\"").ok());
}

TEST(JsonTest, StringRunsRoundTripAtEscapeBoundaries) {
  // ParseString copies each run of plain bytes between escapes in one
  // piece; Dump(Parse(s)) == s pins the bytes at every run boundary.
  std::string envelope_shape = "\"";
  while (envelope_shape.size() < 300 * 1024) {
    envelope_shape += std::string(83, '7') + "\\n";  // 85 bytes a line
  }
  envelope_shape += "\"";
  const std::vector<std::string> docs = {
      "\"\\nab\\t\"",                      // escapes first and last
      "\"\\n\"",                             // an escape alone
      "\"a\\n\\t\\\"\\\\\\u0001b\"",         // adjacent escapes
      "\"ab\xF0\x9F\x98\x80" "cd\"",          // raw UTF-8 between runs
      "[\"x\\\"\",\"\\\\y\",\"\"]",            // runs inside an array
      envelope_shape,
  };
  for (const std::string& s : docs) {
    auto parsed = Value::Parse(s);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Dump(), s);
  }
  auto big = Value::Parse(envelope_shape);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->AsString().size(), (envelope_shape.size() - 2) / 85 * 84);
  // Its decoded length is reserved once, so no doubling slack is kept.
  EXPECT_LT(big->AsString().capacity(), big->AsString().size() + 64);

  // The run scan reads eight bytes at a time: a quote, an escape and a
  // raw control byte at every offset 0-16, amid bytes it must pass (0x20,
  // 0x7F and UTF-8 bytes of 0x80 and above), end the run exactly there.
  std::string pad;
  while (pad.size() < 40) pad += " \x7F\xC3\xA9\xE2\x82\xAC";
  for (size_t k = 0; k <= 16; ++k) {
    SCOPED_TRACE(testing::Message() << "offset " << k);
    const std::string head = pad.substr(0, k);
    const std::string tail = pad.substr(k);
    auto quoted = Value::Parse("[\"" + head + "\",\"" + tail + "\"]");
    ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
    ASSERT_EQ(quoted->items().size(), 2u);
    EXPECT_EQ(quoted->items()[0].AsString(), head);
    EXPECT_EQ(quoted->items()[1].AsString(), tail);
    auto escaped = Value::Parse("\"" + head + "\\\"" + tail + "\"");
    ASSERT_TRUE(escaped.ok()) << escaped.status().ToString();
    EXPECT_EQ(escaped->AsString(), head + "\"" + tail);
    const std::string control = "\"" + head + "\x01" + tail + "\"";
    EXPECT_EQ(Value::Parse(control).status().message(),
              "JSON parse error at byte " + std::to_string(k + 1) +
                  ": raw control character in string");
  }

  // A \uD83D\uDE00 surrogate pair between runs decodes to U+1F600; Dump
  // writes the code point back as raw UTF-8.
  auto pair = Value::Parse("\"ab\\uD83D\\uDE00cd\"");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->AsString(), "ab\xF0\x9F\x98\x80" "cd");
  EXPECT_EQ(pair->Dump(), docs[3]);
}

TEST(JsonTest, StringErrorsKeepTheirTextAndOffset) {
  auto message = [](const std::string& text) {
    return Value::Parse(text).status().message();
  };
  EXPECT_EQ(message("\"" + std::string(1000, 'a')),
            "JSON parse error at byte 1001: unterminated string");
  EXPECT_EQ(message("{\"k\":\"" + std::string(500, 'a') + "\\n" +
                    std::string(500, 'b')),
            "JSON parse error at byte 1008: unterminated string");
  EXPECT_EQ(message("\"abc\x01" "def\""),
            "JSON parse error at byte 4: raw control character in string");
  EXPECT_EQ(message("\"abc\\ndef\nghi\""),
            "JSON parse error at byte 9: raw control character in string");
  EXPECT_EQ(message("\"abc\\"),
            "JSON parse error at byte 5: dangling escape");
  EXPECT_EQ(message("\"abc\\q\""),
            "JSON parse error at byte 6: invalid escape character");
}

TEST(JsonTest, DepthGuard) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(Value::Parse(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(Value::Parse(deep, /*max_depth=*/128).ok());
}

TEST(JsonTest, CheckedMemberReaders) {
  auto obj = Value::Parse("{\"n\":3,\"s\":\"x\",\"b\":true}");
  ASSERT_TRUE(obj.ok());

  auto n = obj->GetNumber("n");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3.0);
  EXPECT_FALSE(obj->GetNumber("missing").ok());
  EXPECT_FALSE(obj->GetNumber("s").ok());  // wrong type

  auto fallback = obj->GetNumberOr("missing", 7.0);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 7.0);
  EXPECT_FALSE(obj->GetNumberOr("s", 7.0).ok());  // present but wrong type

  auto s = obj->GetString("s");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "x");
  auto s_or = obj->GetStringOr("missing", "d");
  ASSERT_TRUE(s_or.ok());
  EXPECT_EQ(*s_or, "d");

  auto b = obj->GetBoolOr("b", false);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  auto b_or = obj->GetBoolOr("missing", true);
  ASSERT_TRUE(b_or.ok());
  EXPECT_TRUE(*b_or);
  EXPECT_FALSE(obj->GetBoolOr("n", false).ok());
}

TEST(JsonTest, FindOnNonObjectIsNull) {
  EXPECT_EQ(Value(int64_t{1}).Find("x"), nullptr);
  Value obj = Value::Object();
  obj.Set("x", Value(int64_t{1}));
  ASSERT_NE(obj.Find("x"), nullptr);
  EXPECT_EQ(obj.Find("y"), nullptr);
}

}  // namespace
}  // namespace json
}  // namespace anonsafe
