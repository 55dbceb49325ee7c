#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"
#include "util/json.hpp"

namespace iotsan::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null").is_null());
  EXPECT_EQ(Parse("true").AsBool(), true);
  EXPECT_EQ(Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(Parse("42").AsNumber(), 42);
  EXPECT_DOUBLE_EQ(Parse("-2.5e2").AsNumber(), -250);
  EXPECT_EQ(Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\nb\t\"c\"\\")").AsString(), "a\nb\t\"c\"\\");
  EXPECT_EQ(Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(Parse(R"("é")").AsString(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParseTest, Arrays) {
  Value v = Parse("[1, 2, 3]");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v.AsArray()[1].AsNumber(), 2);
  EXPECT_TRUE(Parse("[]").AsArray().empty());
}

TEST(JsonParseTest, Objects) {
  Value v = Parse(R"({"a": 1, "b": [true, null]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.At("a").AsNumber(), 1);
  EXPECT_TRUE(v.At("b").AsArray()[1].is_null());
  EXPECT_TRUE(v.Has("a"));
  EXPECT_FALSE(v.Has("c"));
}

TEST(JsonParseTest, NestedStructures) {
  Value v = Parse(R"({"devices": [{"id": "d1", "roles": ["r1", "r2"]}]})");
  EXPECT_EQ(v.At("devices").AsArray()[0].At("roles").AsArray()[1].AsString(),
            "r2");
}

TEST(JsonParseTest, LineCommentsExtension) {
  Value v = Parse("// header\n{\"a\": 1 // trailing\n}");
  EXPECT_DOUBLE_EQ(v.At("a").AsNumber(), 1);
}

TEST(JsonParseTest, TrailingCommaExtension) {
  EXPECT_EQ(Parse("[1, 2,]").AsArray().size(), 2u);
  EXPECT_EQ(Parse(R"({"a": 1,})").AsObject().size(), 1u);
}

TEST(JsonParseTest, ErrorsCarryPosition) {
  try {
    Parse("{\n  \"a\": }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_THROW(Parse(""), ParseError);
  EXPECT_THROW(Parse("{"), ParseError);
  EXPECT_THROW(Parse("[1 2]"), ParseError);
  EXPECT_THROW(Parse("tru"), ParseError);
  EXPECT_THROW(Parse("\"unterminated"), ParseError);
  EXPECT_THROW(Parse("1 2"), ParseError);
  EXPECT_THROW(Parse("{a: 1}"), ParseError);
}

TEST(JsonValueTest, TypeMismatchThrows) {
  EXPECT_THROW(Parse("1").AsString(), Error);
  EXPECT_THROW(Parse("\"x\"").AsNumber(), Error);
  EXPECT_THROW(Parse("[]").AsObject(), Error);
  EXPECT_THROW(Parse("{}").At("missing"), Error);
}

TEST(JsonValueTest, GettersWithDefaults) {
  Value v = Parse(R"({"name": "x", "count": 3, "flag": true})");
  EXPECT_EQ(v.GetString("name"), "x");
  EXPECT_EQ(v.GetString("other", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(v.GetNumber("count"), 3);
  EXPECT_DOUBLE_EQ(v.GetNumber("other", 7), 7);
  EXPECT_TRUE(v.GetBool("flag"));
  EXPECT_FALSE(v.GetBool("other"));
}

TEST(JsonValueTest, DeepCopySemantics) {
  Value a = Parse("[1, 2]");
  Value b = a;
  b.MutableArray().push_back(Value(3));
  EXPECT_EQ(a.AsArray().size(), 2u);
  EXPECT_EQ(b.AsArray().size(), 3u);
}

TEST(JsonValueTest, Equality) {
  EXPECT_EQ(Parse("[1, {\"a\": true}]"), Parse("[1, {\"a\": true}]"));
  EXPECT_FALSE(Parse("[1]") == Parse("[2]"));
  EXPECT_FALSE(Parse("1") == Parse("\"1\""));
}

TEST(JsonValueTest, AsIntegerAcceptsOnlyIntegralNumbersInRange) {
  EXPECT_EQ(Parse("42").AsInteger<int>(), 42);
  EXPECT_EQ(Parse("-3").AsInteger<int>(-10, 10), -3);
  EXPECT_EQ(Parse("4294967295").AsInteger<std::uint32_t>(), 4294967295u);
  EXPECT_EQ(Parse("-9223372036854775808").AsInteger<std::int64_t>(),
            std::numeric_limits<std::int64_t>::min());
  // 2^32, 2^63 and 2^64 are one past the largest value of their type.
  EXPECT_THROW(Parse("4294967296").AsInteger<std::uint32_t>(), Error);
  EXPECT_THROW(Parse("9223372036854775808").AsInteger<std::int64_t>(), Error);
  EXPECT_THROW(Parse("18446744073709551616").AsInteger<std::uint64_t>(),
               Error);
  EXPECT_THROW(Parse("-1").AsInteger<std::uint64_t>(), Error);
  EXPECT_THROW(Parse("65").AsInteger<int>(1, 64), Error);
  EXPECT_THROW(Parse("2.5").AsInteger<int>(), Error);
  EXPECT_THROW(Parse("1e999").AsInteger<int>(), Error);
  EXPECT_THROW(Parse("\"3\"").AsInteger<int>(), Error);
  try {
    Parse("1e300").AsInteger<int>(1, 64);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "wants a value in [1, 64], got 1e+300");
  }
  const Value doc = Parse(R"({"n": 5})");
  EXPECT_EQ(doc.GetInteger<int>("n"), 5);
  EXPECT_EQ(doc.GetInteger<int>("missing", 9), 9);
}

TEST(JsonDumpTest, RoundTrip) {
  const char* docs[] = {
      "null", "true", "42", "\"hi\"", "[1,2,3]",
      R"({"a":1,"b":[true,null],"c":"x"})",
  };
  for (const char* doc : docs) {
    Value original = Parse(doc);
    EXPECT_EQ(Parse(original.Dump()), original) << doc;
  }
}

TEST(JsonDumpTest, PrettyPrinting) {
  std::string out = Parse(R"({"a":[1]})").Dump(2);
  EXPECT_NE(out.find("\n"), std::string::npos);
  EXPECT_NE(out.find("  \"a\""), std::string::npos);
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  Value v(std::string("a\nb\x01"));
  EXPECT_EQ(v.Dump(), "\"a\\nb\\u0001\"");
}

TEST(JsonDumpTest, IntegralNumbersStayIntegral) {
  EXPECT_EQ(Parse("75").Dump(), "75");
  EXPECT_EQ(Parse("-3").Dump(), "-3");
}

TEST(JsonParseTest, NestingDepthIsBounded) {
  auto nested = [](int depth, char open, char close) {
    std::string text(static_cast<std::size_t>(depth), open);
    if (open == '{') {
      text.clear();
      for (int i = 0; i < depth; ++i) text += "{\"k\":";
      text += "0";
    }
    return text + std::string(static_cast<std::size_t>(depth), close);
  };
  EXPECT_NO_THROW(Parse(nested(kMaxDepth, '[', ']')));
  EXPECT_NO_THROW(Parse(nested(kMaxDepth, '{', '}')));
  EXPECT_THROW(Parse(nested(kMaxDepth + 1, '[', ']')), ParseError);
  EXPECT_THROW(Parse(nested(kMaxDepth + 1, '{', '}')), ParseError);
  // An unterminated bomb fails at the limit, long before the stack does.
  try {
    Parse(std::string(100000, '['));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace iotsan::json
