#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace guess {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesKeyValuePairs) {
  auto flags = make({"--n=100", "--rate=0.5", "--name=test"});
  EXPECT_EQ(flags.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(flags.get_string("name", ""), "test");
}

TEST(Flags, FallbacksWhenAbsent) {
  auto flags = make({});
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(flags.get_bool("full", false));
  EXPECT_TRUE(flags.get_bool("full", true));
}

TEST(Flags, BooleanForms) {
  EXPECT_TRUE(make({"--full"}).get_bool("full", false));
  EXPECT_TRUE(make({"--full=true"}).get_bool("full", false));
  EXPECT_TRUE(make({"--full=1"}).get_bool("full", false));
  EXPECT_FALSE(make({"--full=false"}).get_bool("full", true));
  EXPECT_FALSE(make({"--full=0"}).get_bool("full", true));
  EXPECT_THROW(make({"--full=maybe"}).get_bool("full", false), CheckError);
}

TEST(Flags, PositionalArgumentsRejected) {
  EXPECT_THROW(make({"positional"}), CheckError);
}

TEST(Flags, MalformedNumbersThrow) {
  EXPECT_THROW(make({"--n=12x"}).get_int("n", 0), CheckError);
  EXPECT_THROW(make({"--rate=abc"}).get_double("rate", 0.0), CheckError);
}

TEST(Flags, HarnessConventions) {
  auto flags = make({"--seed=9", "--seeds=3", "--full"});
  EXPECT_EQ(flags.seed(), 9u);
  EXPECT_EQ(flags.seeds(), 3);
  EXPECT_TRUE(flags.full());
  EXPECT_TRUE(flags.has("seed"));
  EXPECT_FALSE(flags.has("absent"));
}

// Sizes and counts: a negative value is an error naming the flag, never a
// wrap-around through an unsigned cast.
TEST(Flags, GetSizeRejectsNegativeValues) {
  EXPECT_EQ(make({"--n=200"}).get_size("n", 7), 200u);
  EXPECT_EQ(make({}).get_size("n", 7), 7u);
  EXPECT_EQ(make({"--n=0"}).get_size("n", 7), 0u);
  try {
    make({"--cache-size=-1"}).get_size("cache-size", 100);
    FAIL() << "negative size accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--cache-size"), std::string::npos);
  }
  EXPECT_THROW(make({"--max-retries=-2"}).max_retries(), CheckError);
  EXPECT_THROW(make({"--seeds=-3"}).seeds(), CheckError);
  EXPECT_THROW(make({"--threads=-1"}).threads(), CheckError);
}

// A flag nobody asked about is rejected by name, so a typo (or a flag a
// binary does not support) cannot silently run with the default.
TEST(Flags, RejectUnreadNamesEveryUnknownFlag) {
  auto flags = make({"--seed=3", "--max-retires=2", "--max-backoff=5"});
  EXPECT_EQ(flags.seed(), 3u);
  try {
    flags.reject_unread();
    FAIL() << "unread flags accepted";
  } catch (const CheckError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("--max-retires"), std::string::npos);
    EXPECT_NE(what.find("--max-backoff"), std::string::npos);
    EXPECT_EQ(what.find("--seed"), std::string::npos);
  }
  // Asking about a flag counts as reading it, whatever the answer is used
  // for.
  flags.has("max-retires");
  flags.get_double("max-backoff", 0.0);
  EXPECT_NO_THROW(flags.reject_unread());
  EXPECT_NO_THROW(make({}).reject_unread());
}

}  // namespace
}  // namespace guess
