#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>

namespace vmp::util {
namespace {

/// The std::invalid_argument message `call` throws, or "" when it returns.
std::string error_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(CliArgs, CommandAndPositionals) {
  const CliArgs args({"meter", "extra"});
  EXPECT_EQ(args.command(), "meter");
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[1], "extra");
  EXPECT_EQ(CliArgs({}).command(), "");
}

TEST(CliArgs, OptionsWithValues) {
  const CliArgs args({"collect", "--fleet", "VM1,VM2", "--duration", "300"});
  EXPECT_TRUE(args.has("fleet"));
  EXPECT_EQ(args.get("fleet"), "VM1,VM2");
  EXPECT_DOUBLE_EQ(args.get_double("duration", 0.0), 300.0);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 7.5), 7.5);
  EXPECT_EQ(args.get_unsigned<std::uint32_t>("missing", 9), 9u);
}

TEST(CliArgs, FlagsHaveEmptyValues) {
  const CliArgs args({"meter", "--verbose", "--out", "x.csv"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", "unset"), "");
  EXPECT_EQ(args.get("out"), "x.csv");
}

TEST(CliArgs, FlagFollowedByOptionIsFlag) {
  const CliArgs args({"--flag", "--key", "value"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("flag", "unset"), "");
  EXPECT_EQ(args.get("key"), "value");
}

TEST(CliArgs, RequireThrowsWhenMissing) {
  const CliArgs args({"train", "--table", "t.vsc"});
  EXPECT_EQ(args.require("table"), "t.vsc");
  EXPECT_THROW(args.require("out"), std::invalid_argument);
  // Present as a flag (empty value) also fails require.
  const CliArgs flag({"--out"});
  EXPECT_THROW(flag.require("out"), std::invalid_argument);
}

TEST(CliArgs, NumericValidation) {
  const CliArgs args({"--duration", "abc", "--seed", "1.5"});
  EXPECT_THROW(args.get_double("duration", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_unsigned<std::uint64_t>("seed", 0),
               std::invalid_argument);
}

TEST(CliArgs, NegativeNumbersParse) {
  // A negative value does not start with "--", so it binds as a value.
  const CliArgs args({"--offset", "-5"});
  EXPECT_EQ(args.get("offset"), "-5");
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -5.0);
  // The unsigned reader names it as negative, not as malformed.
  EXPECT_EQ(
      error_of([&] { (void)args.get_unsigned<std::uint32_t>("offset", 0); }),
      "--offset must be >= 0");
}

TEST(CliArgs, UnknownKeysDetected) {
  const CliArgs args({"meter", "--fleet", "VM1", "--tpyo", "x"});
  EXPECT_EQ(args.command(), "meter");
  EXPECT_EQ(args.get("fleet"), "VM1");
  EXPECT_EQ(args.get("out"), "");  // reading an absent key is harmless.
  EXPECT_EQ(error_of([&] { args.reject_unread(); }),
            "meter: unknown flag --tpyo");
  (void)args.get("tpyo");
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(CliArgs, HasCountsAsARead) {
  const CliArgs args({"slo", "--full", "--csv", "x.csv"});
  (void)args.command();
  EXPECT_TRUE(args.has("full"));
  EXPECT_TRUE(args.has("csv"));
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(CliArgs, UnreadPositionalNamesTheCommand) {
  const CliArgs args({"ledger", "inspect", "extra"});
  EXPECT_EQ(args.command(), "ledger");
  EXPECT_EQ(args.positional(1), "inspect");
  EXPECT_EQ(args.positional(5), "");
  EXPECT_EQ(error_of([&] { args.reject_unread(); }),
            "ledger: unexpected argument 'extra'");
  // positionals() hands every positional out, so all of them count as read.
  EXPECT_EQ(args.positionals().size(), 3u);
  EXPECT_NO_THROW(args.reject_unread());
  // An unread option is reported by the same call.
  const CliArgs fleet({"fleet", "--bogus", "1"});
  (void)fleet.command();
  EXPECT_EQ(error_of([&] { fleet.reject_unread(); }),
            "fleet: unknown flag --bogus");
}

TEST(CliArgs, UnsignedReaderRejectsWhatTheTypeCannotHold) {
  const CliArgs args({"--neg", "-1", "--u16", "65535", "--u16over", "65536",
                      "--u32", "4294967295", "--u32over", "4294967296",
                      "--frac", "1.5", "--word", "abc", "--empty"});
  const auto u16_error = [&](const char* key) {
    return error_of([&] { (void)args.get_unsigned<std::uint16_t>(key, 0); });
  };
  const auto u32_error = [&](const char* key) {
    return error_of([&] { (void)args.get_unsigned<std::uint32_t>(key, 0); });
  };
  EXPECT_EQ(u16_error("neg"), "--neg must be >= 0");
  EXPECT_EQ(u32_error("neg"), "--neg must be >= 0");
  EXPECT_EQ(args.get_unsigned<std::uint16_t>("u16", 0), 65535u);
  EXPECT_EQ(u16_error("u16over"), "--u16over must be <= 65535");
  EXPECT_EQ(args.get_unsigned<std::uint32_t>("u32", 0), 4294967295u);
  EXPECT_EQ(u32_error("u32over"), "--u32over must be <= 4294967295");
  EXPECT_EQ(args.get_unsigned<std::uint64_t>("u32over", 0), 4294967296u);
  for (const char* key : {"frac", "word", "empty"})
    EXPECT_EQ(u32_error(key), std::string("CliArgs: --") + key +
                                  " expects an integer, got '" +
                                  args.get(key) + "'");
  EXPECT_EQ(args.get_unsigned<std::uint16_t>("absent", 7), 7u);
  // require_unsigned: the same bounds, and a missing option is an error.
  EXPECT_EQ(args.require_unsigned<std::uint16_t>("u16"), 65535u);
  EXPECT_THROW((void)args.require_unsigned<std::uint16_t>("u16over"),
               std::invalid_argument);
  EXPECT_THROW((void)args.require_unsigned<std::uint16_t>("absent"),
               std::invalid_argument);
}

TEST(CliArgs, TickReaderRejectsWhatTheCastCannotHold) {
  const CliArgs args({"--ok", "16.9", "--neg", "-5", "--inf", "inf", "--nan",
                      "nan", "--huge", "1e30"});
  EXPECT_EQ(args.get_ticks("ok", 0.0), 16u);
  EXPECT_EQ(args.get_ticks("absent", 60.0), 60u);
  for (const char* key : {"neg", "inf", "nan", "huge"})
    EXPECT_EQ(error_of([&] { (void)args.get_ticks(key, 0.0); }),
              std::string("--") + key + " must be >= 0 and < 2^64");
}

TEST(CliArgs, RepeatedOptionRejected) {
  EXPECT_EQ(
      error_of([] { CliArgs({"fleet", "--hosts", "4", "--hosts", "8"}); }),
      "--hosts is given more than once");
  EXPECT_EQ(error_of([] { CliArgs({"serve", "--ordered", "--ordered"}); }),
            "--ordered is given more than once");
}

TEST(CliArgs, BooleanFlagGivenAValueRejected) {
  const CliArgs args({"serve", "--ordered", "0", "--trace", "--hedge",
                      "--query", "stats"});
  EXPECT_EQ(error_of([&] { (void)args.get_flag("ordered"); }),
            "--ordered takes no value, got '0'");
  EXPECT_TRUE(args.get_flag("trace"));
  EXPECT_TRUE(args.get_flag("hedge"));
  EXPECT_FALSE(args.get_flag("absent"));
}

TEST(CliArgs, BareDashesRejected) {
  EXPECT_THROW(CliArgs({"--"}), std::invalid_argument);
}

TEST(CliArgs, ArgcArgvConstructor) {
  const char* argv[] = {"vmpower", "meter", "--duration", "60"};
  const CliArgs args(4, argv);
  EXPECT_EQ(args.command(), "meter");
  EXPECT_DOUBLE_EQ(args.get_double("duration", 0.0), 60.0);
}

TEST(SplitCsv, Basics) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("one"), (std::vector<std::string>{"one"}));
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_EQ(split_csv("a,,b"), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split_csv("a,"), (std::vector<std::string>{"a", ""}));
}

}  // namespace
}  // namespace vmp::util
