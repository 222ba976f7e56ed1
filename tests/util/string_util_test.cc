#include "util/string_util.h"

#include <gtest/gtest.h>

namespace ems {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a;b;c", ';'), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a;;c", ';'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(";", ';'), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiter) {
  EXPECT_EQ(Split("abc", ';'), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ';'), (std::vector<std::string>{""}));
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("ev_abc", "ev_"));
  EXPECT_FALSE(StartsWith("ev", "ev_"));
  EXPECT_TRUE(EndsWith("file.xes", ".xes"));
  EXPECT_FALSE(EndsWith("x", ".xes"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(Join({"solo"}, "+"), "solo");
  EXPECT_EQ(Join({}, "+"), "");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(0.4567, 3), "0.457");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
  EXPECT_EQ(FormatDouble(-2.5, 0), "-2");  // round-half-even via printf
}

TEST(XmlEscapeTest, EscapesSpecials) {
  EXPECT_EQ(XmlEscape("a<b&c>\"d'"), "a&lt;b&amp;c&gt;&quot;d&apos;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

TEST(ParseNumberTest, AcceptsOneWholeNumberInRange) {
  EXPECT_EQ(ParseNumber<int>("42"), 42);
  EXPECT_EQ(ParseNumber<int>("-7"), -7);
  EXPECT_EQ(ParseNumber<long>("0"), 0L);
  EXPECT_EQ(ParseNumber<double>("0.3"), 0.3);
  EXPECT_EQ(ParseNumber<double>("1e3"), 1000.0);
  EXPECT_EQ(ParseNumber<double>("-2.5"), -2.5);
  EXPECT_EQ(ParseNumber<unsigned long long>("18446744073709551615"),
            18446744073709551615ULL);
}

TEST(ParseNumberTest, RejectsLeftoversAndOtherSpellings) {
  for (const char* text :
       {"", "abc", "0,3", "1e3x", "two", "x", " 1", "1 ", "+1", "0x10", "-"}) {
    EXPECT_FALSE(ParseNumber<double>(text).has_value()) << "'" << text << "'";
    EXPECT_FALSE(ParseNumber<int>(text).has_value()) << "'" << text << "'";
  }
  EXPECT_FALSE(ParseNumber<int>("1e3").has_value());
  EXPECT_FALSE(ParseNumber<int>("1.5").has_value());
}

TEST(ParseNumberTest, RejectsValuesOutsideTheTypeOrNotFinite) {
  EXPECT_FALSE(ParseNumber<int>("2147483648").has_value());
  EXPECT_FALSE(ParseNumber<long long>("99999999999999999999").has_value());
  EXPECT_FALSE(ParseNumber<unsigned long>("-1").has_value());
  EXPECT_FALSE(ParseNumber<unsigned long long>("18446744073709551616")
                   .has_value());
  EXPECT_FALSE(ParseNumber<double>("1e400").has_value());
  EXPECT_FALSE(ParseNumber<double>("inf").has_value());
  EXPECT_FALSE(ParseNumber<double>("nan").has_value());
}

TEST(ParseFlagNumberTest, NamesTheFlagAndLeavesTheTargetOnFailure) {
  int threads = 3;
  const Status bad = ParseFlagNumber("threads", "two", &threads);
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("--threads"), std::string::npos)
      << bad.message();
  EXPECT_NE(bad.message().find("'two'"), std::string::npos) << bad.message();
  EXPECT_EQ(threads, 3);
  ASSERT_TRUE(ParseFlagNumber("threads", "8", &threads).ok());
  EXPECT_EQ(threads, 8);
}

}  // namespace
}  // namespace ems
