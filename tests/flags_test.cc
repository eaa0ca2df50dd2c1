// Tests for the flag table every tool and bench harness parses argv with
// (tools/flags.h): each kind of entry, bounds, choices, positional
// arguments, the error texts and the generated --help.

#include "tools/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rdmajoin {
namespace {

/// Parses `args` (without argv[0]) against `table`.
Status ParseArgs(FlagTable* table, std::vector<std::string> args) {
  args.insert(args.begin(), "flags_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return table->Parse(static_cast<int>(argv.size()), argv.data());
}

enum class Color { kRed, kGreen };

/// One destination of every kind, with a table over them.
struct Dests {
  std::string name = "unset";
  bool verbose = false;
  uint32_t machines = 4;
  uint64_t seed = 42;
  size_t top = 5;
  double scale = 1024;
  std::string cluster = "qdr";
  Color color = Color::kRed;
  std::optional<Color> tint;
  std::vector<std::string> paths;

  FlagTable Table() {
    return FlagTable(
        "flags_test -- a table of every kind",
        {StringFlag("--name", "PATH", &name, "a string"),
         SwitchFlag("--verbose", &verbose, "a switch"),
         UintFlag("--machines", &machines, 1, 1024, "a bounded uint32"),
         UintFlag("--seed", &seed, 0, UINT64_MAX, "any uint64"),
         UintFlag("--top", &top, 1, 1000000, "a bounded size_t"),
         DoubleFlag("--scale", &scale, 1, 1e9, "a bounded double"),
         ChoiceFlag("--cluster", &cluster, {"qdr", "fdr"}, "a named choice"),
         EnumFlag("--color", &color,
                  {{"red", Color::kRed}, {"green", Color::kGreen}},
                  "an enum choice\nover two lines"),
         EnumFlag("--tint", &tint, {{"green", Color::kGreen}},
                  "an optional enum choice")},
        "the footer");
  }
};

std::string ErrorOf(std::vector<std::string> args) {
  Dests d;
  FlagTable table = d.Table();
  return ParseArgs(&table, std::move(args)).message();
}

TEST(ParseValueHelpers, FullTokenValidation) {
  double d = 0;
  EXPECT_TRUE(ParseDoubleValue("42.5", &d));
  EXPECT_DOUBLE_EQ(d, 42.5);
  EXPECT_FALSE(ParseDoubleValue("", &d));
  EXPECT_FALSE(ParseDoubleValue("4x", &d));
  EXPECT_FALSE(ParseDoubleValue("nan", &d));
  EXPECT_FALSE(ParseDoubleValue("inf", &d));
  uint64_t u = 0;
  EXPECT_TRUE(ParseU64Value("123", &u));
  EXPECT_EQ(u, 123u);
  EXPECT_FALSE(ParseU64Value("", &u));
  EXPECT_FALSE(ParseU64Value("-1", &u));
  EXPECT_FALSE(ParseU64Value("1.5", &u));
}

TEST(ParseValueHelpers, RejectSignsOverflowAndNonFiniteValues) {
  double d = 7;
  for (const char* bad : {"-nan", "-inf", "infinity", "1e400", " 1", "1 ", "+1",
                          "0x10", "1e", "."}) {
    EXPECT_FALSE(ParseDoubleValue(bad, &d)) << bad;
  }
  EXPECT_EQ(d, 7);  // untouched on failure
  EXPECT_TRUE(ParseDoubleValue("1e308", &d));
  EXPECT_TRUE(ParseDoubleValue("-0.25", &d));
  EXPECT_DOUBLE_EQ(d, -0.25);

  uint64_t u = 7;
  for (const char* bad : {"+1", " 1", "1 ", "0x10", "1e3", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseU64Value(bad, &u)) << bad;
  }
  EXPECT_EQ(u, 7u);
  EXPECT_TRUE(ParseU64Value("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
}

TEST(FlagTable, DefaultsSurviveAnEmptyCommandLine) {
  Dests d;
  FlagTable table = d.Table();
  ASSERT_TRUE(ParseArgs(&table, {}).ok());
  EXPECT_EQ(d.name, "unset");
  EXPECT_FALSE(d.verbose);
  EXPECT_EQ(d.machines, 4u);
  EXPECT_EQ(d.seed, 42u);
  EXPECT_EQ(d.top, 5u);
  EXPECT_EQ(d.scale, 1024);
  EXPECT_EQ(d.cluster, "qdr");
  EXPECT_EQ(d.color, Color::kRed);
  EXPECT_FALSE(d.tint.has_value());
  EXPECT_FALSE(table.Given("--machines"));
  EXPECT_FALSE(table.help_requested());
}

TEST(FlagTable, StoresEveryKind) {
  Dests d;
  FlagTable table = d.Table();
  ASSERT_TRUE(ParseArgs(&table, {"--name=a=b", "--verbose", "--machines=1024",
                                 "--seed=18446744073709551615", "--top=1",
                                 "--scale=1e9", "--cluster=fdr",
                                 "--color=green", "--tint=green"})
                  .ok());
  EXPECT_EQ(d.name, "a=b");  // only the first '=' separates
  EXPECT_TRUE(d.verbose);
  EXPECT_EQ(d.machines, 1024u);
  EXPECT_EQ(d.seed, UINT64_MAX);
  EXPECT_EQ(d.top, 1u);
  EXPECT_EQ(d.scale, 1e9);
  EXPECT_EQ(d.cluster, "fdr");
  EXPECT_EQ(d.color, Color::kGreen);
  EXPECT_EQ(d.tint, Color::kGreen);
  EXPECT_TRUE(table.Given("--machines"));
  EXPECT_TRUE(table.Given("--verbose"));
  EXPECT_FALSE(table.Given("--help"));
}

TEST(FlagTable, LastRepetitionWins) {
  Dests d;
  FlagTable table = d.Table();
  ASSERT_TRUE(ParseArgs(&table, {"--machines=2", "--machines=3"}).ok());
  EXPECT_EQ(d.machines, 3u);
}

TEST(FlagTable, BoundsAreInclusiveAndEnforced) {
  EXPECT_EQ(ErrorOf({"--machines=0"}),
            "invalid --machines value: '0' (expected an integer in [1, 1024])");
  EXPECT_EQ(ErrorOf({"--machines=1025"}),
            "invalid --machines value: '1025' (expected an integer in [1, "
            "1024])");
  EXPECT_EQ(ErrorOf({"--scale=0.5"}),
            "invalid --scale value: '0.5' (expected a number in [1, 1e+09])");
  EXPECT_EQ(ErrorOf({"--scale=1e308"}),
            "invalid --scale value: '1e308' (expected a number in [1, 1e+09])");
  EXPECT_EQ(ErrorOf({"--seed=-1"}),
            "invalid --seed value: '-1' (expected an unsigned integer)");
  EXPECT_EQ(ErrorOf({"--top=0"}),
            "invalid --top value: '0' (expected an integer in [1, 1000000])");
}

TEST(FlagTable, UintFlagClampsToTheDestinationType) {
  uint32_t v = 9;
  FlagTable table("t", {UintFlag("--v", &v, 0, UINT64_MAX, "")});
  EXPECT_TRUE(ParseArgs(&table, {"--v=4294967295"}).ok());
  EXPECT_EQ(v, UINT32_MAX);
  EXPECT_EQ(ParseArgs(&table, {"--v=4294967296"}).message(),
            "invalid --v value: '4294967296' (expected an integer in [0, "
            "4294967295])");
  EXPECT_EQ(v, UINT32_MAX);
}

TEST(FlagTable, HostileValuesNameTheFlagAndLeaveTheDestination) {
  const char* const hostile[] = {"abc", "", "-1", "nan", "inf", "1e308",
                                 "4294967296", "99999999999", "0.5", "5x"};
  for (const char* flag : {"--machines", "--top", "--scale", "--cluster",
                           "--color"}) {
    for (const char* value : hostile) {
      Dests d;
      FlagTable table = d.Table();
      const std::string arg = std::string(flag) + "=" + value;
      const Status s = ParseArgs(&table, {arg});
      ASSERT_FALSE(s.ok()) << arg;
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(s.message().find(std::string("invalid ") + flag + " value: '" +
                                 value + "'"),
                0u)
          << s.message();
      EXPECT_EQ(d.machines, 4u);
      EXPECT_EQ(d.top, 5u);
      EXPECT_EQ(d.scale, 1024);
      EXPECT_EQ(d.cluster, "qdr");
      EXPECT_FALSE(table.Given(flag));
    }
  }
}

TEST(FlagTable, ChoicesListTheirNames) {
  EXPECT_EQ(ErrorOf({"--cluster=bogus"}),
            "invalid --cluster value: 'bogus' (expected one of qdr|fdr)");
  EXPECT_EQ(ErrorOf({"--color=RED"}),
            "invalid --color value: 'RED' (expected one of red|green)");
  EXPECT_EQ(ErrorOf({"--name="}),
            "invalid --name value: '' (expected a non-empty PATH)");
}

TEST(FlagTable, RejectsMalformedFlags) {
  EXPECT_EQ(ErrorOf({"--bogus"}), "unknown flag: '--bogus'");
  EXPECT_EQ(ErrorOf({"--bogus=1"}), "unknown flag: '--bogus=1'");
  EXPECT_EQ(ErrorOf({"-x"}), "unknown flag: '-x'");
  EXPECT_EQ(ErrorOf({"--machine=2"}), "unknown flag: '--machine=2'");
  EXPECT_EQ(ErrorOf({"--verbose=1"}), "--verbose takes no value");
  EXPECT_EQ(ErrorOf({"--machines"}), "--machines needs a value: --machines=N");
  EXPECT_EQ(ErrorOf({"stray"}), "unexpected argument: 'stray'");
}

TEST(FlagTable, CollectsPositionalArgumentsInOrder) {
  Dests d;
  FlagTable table = d.Table();
  table.Positional("PATH...", &d.paths, "inputs");
  ASSERT_TRUE(ParseArgs(&table, {"a.json", "--verbose", "b.json", "-"}).ok());
  EXPECT_EQ(d.paths, (std::vector<std::string>{"a.json", "b.json", "-"}));
  EXPECT_TRUE(d.verbose);
}

TEST(FlagTable, HelpStopsParsing) {
  for (const char* help : {"--help", "-h"}) {
    Dests d;
    FlagTable table = d.Table();
    ASSERT_TRUE(ParseArgs(&table, {"--machines=2", help, "--bogus"}).ok());
    EXPECT_TRUE(table.help_requested());
    EXPECT_EQ(d.machines, 2u);
  }
}

TEST(FlagTable, ParseOrExitCodeMapsOutcomesToExitCodes) {
  auto run = [](std::vector<std::string> args) {
    Dests d;
    FlagTable table = d.Table();
    args.insert(args.begin(), "flags_test");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return table.ParseOrExitCode(static_cast<int>(argv.size()), argv.data(),
                                 /*usage_exit=*/3);
  };
  EXPECT_EQ(run({"--machines=2"}), std::nullopt);
  EXPECT_EQ(run({"--machines=0"}), 3);
  testing::internal::CaptureStdout();
  EXPECT_EQ(run({"--help"}), 0);
  EXPECT_NE(testing::internal::GetCapturedStdout().find("--machines=N"),
            std::string::npos);
}

TEST(FlagTable, GeneratesHelpFromTheTable) {
  Dests d;
  FlagTable table = d.Table();
  table.Positional("PATH...", &d.paths, "inputs");
  EXPECT_EQ(table.Help(),
            "flags_test -- a table of every kind\n"
            "\n"
            "  --name=PATH                   a string\n"
            "  --verbose                     a switch\n"
            "  --machines=N                  a bounded uint32\n"
            "  --seed=N                      any uint64\n"
            "  --top=N                       a bounded size_t\n"
            "  --scale=X                     a bounded double\n"
            "  --cluster=qdr|fdr             a named choice\n"
            "  --color=red|green             an enum choice\n"
            "                                over two lines\n"
            "  --tint=green                  an optional enum choice\n"
            "  PATH...                       inputs\n"
            "  --help                        print this help and exit\n"
            "\n"
            "the footer\n");
}

TEST(FlagTable, LongLabelsPutHelpOnTheNextLine) {
  std::string v;
  FlagTable table("t", {ChoiceFlag("--operator", &v,
                                   {"hashjoin", "sortmerge", "aggregate"},
                                   "which operator")});
  EXPECT_NE(table.Help().find("  --operator=hashjoin|sortmerge|aggregate\n"
                              "                                which operator\n"),
            std::string::npos)
      << table.Help();
}

}  // namespace
}  // namespace rdmajoin
