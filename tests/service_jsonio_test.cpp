// The service's minimal flat-JSON plumbing: escaping, strict parsing with
// reasons, typed getters, and the quote-aware array helpers the status
// client uses.
#include "src/service/jsonio.hpp"

#include <gtest/gtest.h>

namespace hdtn::service {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("line1\nline2\t."), "line1\\nline2\\t.");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ParseFlatObjectTest, ParsesStringsNumbersBoolsAndNull) {
  FlatObject fields;
  std::string error;
  ASSERT_TRUE(parseFlatObject(
      "{\"name\":\"p30\",\"priority\":-2,\"ratio\":0.75,"
      "\"resume\":true,\"note\":null}",
      &fields, &error))
      << error;
  EXPECT_EQ(getString(fields, "name"), "p30");
  EXPECT_EQ(getInt(fields, "priority"), -2);
  EXPECT_EQ(getString(fields, "ratio"), "0.75");
  EXPECT_TRUE(getBool(fields, "resume"));
  EXPECT_EQ(getString(fields, "note"), "");
  EXPECT_EQ(getInt(fields, "missing", 7), 7);
}

TEST(ParseFlatObjectTest, GetIntRejectsTrailingBytesAndNarrowing) {
  FlatObject fields;
  ASSERT_TRUE(parseFlatObject(
      "{\"priority\":4294967296,\"id\":\"12abc\",\"n\":\"-7\"}", &fields,
      nullptr));
  bool ok = true;
  // 2^32 is a fine int64 but must not wrap to 0 as an int.
  EXPECT_EQ(getInt(fields, "priority", 0, &ok), 4294967296);
  EXPECT_TRUE(ok);
  EXPECT_EQ(getInt<int>(fields, "priority", -1, &ok), -1);
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_EQ(getInt(fields, "id", 5, &ok), 5);  // not 12
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_EQ(getInt<std::uint64_t>(fields, "n", 3, &ok), 3u);
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_EQ(getInt<int>(fields, "n", 0, &ok), -7);
  EXPECT_EQ(getInt<int>(fields, "missing", 9, &ok), 9);
  EXPECT_TRUE(ok);  // absent keys fall back without a failure
}

TEST(ParseFlatObjectTest, RoundTripsEscapedStrings) {
  const std::string original = "a \"quoted\" line\nwith\ttabs \\ and \x02";
  FlatObject fields;
  ASSERT_TRUE(parseFlatObject(
      "{\"text\":\"" + jsonEscape(original) + "\"}", &fields, nullptr));
  EXPECT_EQ(getString(fields, "text"), original);
}

TEST(ParseFlatObjectTest, RejectsMalformedInputWithAReason) {
  FlatObject fields;
  std::string error;
  // Truncated object — exactly what a torn WAL tail looks like.
  EXPECT_FALSE(parseFlatObject("{\"op\":\"submit\",\"id\":3", &fields,
                               &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseFlatObject("{\"a\":{\"nested\":1}}", &fields, &error));
  EXPECT_FALSE(parseFlatObject("{\"a\":\"bad\\q\"}", &fields, &error));
  EXPECT_FALSE(parseFlatObject("not json at all", &fields, &error));
  EXPECT_FALSE(parseFlatObject("{\"a\":1} trailing", &fields, &error));
}

TEST(ArrayHelpersTest, SplitsObjectsRespectingQuotedBraces) {
  const std::string body =
      "{\"id\":1,\"name\":\"has,comma\"},{\"id\":2,\"name\":\"has}brace\"}";
  const std::vector<std::string> parts = splitObjectArray(body);
  ASSERT_EQ(parts.size(), 2u);
  FlatObject first;
  ASSERT_TRUE(parseFlatObject(parts[0], &first, nullptr));
  EXPECT_EQ(getString(first, "name"), "has,comma");
  FlatObject second;
  ASSERT_TRUE(parseFlatObject(parts[1], &second, nullptr));
  EXPECT_EQ(getString(second, "name"), "has}brace");
}

TEST(ArrayHelpersTest, ExtractsAndStripsArrayFields) {
  const std::string reply =
      "{\"ok\":true,\"pending\":2,\"jobs\":[{\"id\":1},{\"id\":2}]}";
  EXPECT_EQ(extractArrayBody(reply, "jobs"), "{\"id\":1},{\"id\":2}");
  EXPECT_EQ(extractArrayBody(reply, "absent"), "");
  FlatObject flat;
  std::string error;
  ASSERT_TRUE(parseFlatObject(stripArrayFields(reply), &flat, &error))
      << error;
  EXPECT_TRUE(getBool(flat, "ok"));
  EXPECT_EQ(getInt(flat, "pending"), 2);
}

}  // namespace
}  // namespace hdtn::service
