#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "src/util/string_util.h"

namespace expfinder {
namespace {

TEST(SplitTest, Basic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparator) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("pattern v1", "pattern"));
  EXPECT_FALSE(StartsWith("pat", "pattern"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(EqualsIgnoreCaseTest, Basic) {
  EXPECT_TRUE(EqualsIgnoreCase("HeLLo", "hello"));
  EXPECT_FALSE(EqualsIgnoreCase("hello", "hell"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(ToLowerTest, Basic) { EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123"); }

TEST(ParseInt64Test, ValidInputs) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64("  13 ", &v));
  EXPECT_EQ(v, 13);
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseInt64Test, InvalidInputs) {
  int64_t v;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("999999999999999999999999", &v));
}

TEST(ParseDoubleTest, ValidInputs) {
  double v;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_TRUE(ParseDouble("7", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ParseDoubleTest, InvalidInputs) {
  double v;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("x", &v));
  EXPECT_FALSE(ParseDouble("1.5.6", &v));
}

TEST(EscapeQuotedTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(EscapeQuoted("plain"), "plain");
  EXPECT_EQ(EscapeQuoted("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeQuoted("a\\b"), "a\\\\b");
}

TEST(Fnv1aTest, StableAndDiscriminating) {
  EXPECT_EQ(Fnv1a("hello"), Fnv1a("hello"));
  EXPECT_NE(Fnv1a("hello"), Fnv1a("hellp"));
  EXPECT_NE(Fnv1a(""), Fnv1a(" "));
  EXPECT_NE(Fnv1a("x", 1), Fnv1a("x", 2));
}

TEST(TopicTokensTest, ByteClassesMatchTheClassicLocale) {
  // The tokenizer classifies bytes itself: on every byte it must agree with
  // isalnum/tolower in the "C" locale the tests run under.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(IsTopicTokenChar(c), std::isalnum(b) != 0) << b;
    if (IsTopicTokenChar(c)) {
      EXPECT_EQ(LowerAscii(c), static_cast<char>(std::tolower(b))) << b;
    }
  }
  EXPECT_EQ(TopicTokens("Graph-DBs, na\xC3\xAFve 2024x"),
            (std::vector<std::string>{"graph", "dbs", "na", "ve", "2024x"}));
}

TEST(TopicTokensTest, StreamingHitsAgreeWithTokenizing) {
  const std::vector<std::string> tokens = {"2024x", "dbs", "graph", "ve"};
  const std::string text = "GRAPH graph-DBs; na\xC3\xAFve 2024X graphs";
  std::vector<size_t> hits;
  ForEachTopicTokenHit(text, tokens, [&](size_t i) {
    hits.push_back(i);
    return true;
  });
  EXPECT_EQ(hits, (std::vector<size_t>{2, 2, 1, 3, 0}));
  size_t first = tokens.size();
  ForEachTopicTokenHit(text, tokens, [&](size_t i) {
    first = i;
    return false;  // stops after the first hit
  });
  EXPECT_EQ(first, 2u);
  EXPECT_LT(CompareLoweredRun("Graph", "graphs"), 0);
  EXPECT_EQ(CompareLoweredRun("GrApH", "graph"), 0);
  EXPECT_GT(CompareLoweredRun("Z", "a"), 0);
}

}  // namespace
}  // namespace expfinder
