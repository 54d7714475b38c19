// Unit tests for the CLI flag parser and table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace hpsum::util {
namespace {

Args parse(std::vector<const char*> argv, std::vector<std::string> known) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()), std::move(known));
}

TEST(Cli, DefaultsWhenAbsent) {
  const Args args = parse({}, {"n"});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("n", 2.5), 2.5);
  EXPECT_EQ(args.get_string("n", "x"), "x");
  EXPECT_FALSE(args.get_bool("n"));
}

TEST(Cli, ParsesIntAndSuffixes) {
  const Args args = parse({"--n=4k"}, {"n"});
  EXPECT_EQ(args.get_int("n", 0), 4096);
  const Args args2 = parse({"--n=2M"}, {"n"});
  EXPECT_EQ(args2.get_int("n", 0), 2 * 1024 * 1024);
  const Args args3 = parse({"--n=1g"}, {"n"});
  EXPECT_EQ(args3.get_int("n", 0), 1 << 30);
  const Args args4 = parse({"--n=123"}, {"n"});
  EXPECT_EQ(args4.get_int("n", 0), 123);
}

TEST(Cli, ParsesDoubleAndString) {
  const Args args = parse({"--sigma=1e-3", "--mode=tree"}, {"sigma", "mode"});
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0), 1e-3);
  EXPECT_EQ(args.get_string("mode", ""), "tree");
}

TEST(Cli, BoolFlagForms) {
  EXPECT_TRUE(parse({"--fast"}, {"fast"}).get_bool("fast"));
  EXPECT_TRUE(parse({"--fast=1"}, {"fast"}).get_bool("fast"));
  EXPECT_TRUE(parse({"--fast=yes"}, {"fast"}).get_bool("fast"));
  EXPECT_FALSE(parse({"--fast=0"}, {"fast"}).get_bool("fast"));
}

TEST(Cli, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--typo=3"}, {"n"}), std::invalid_argument);
}

TEST(Cli, BadValueNamesTheFlag) {
  const Args args = parse({"--n=abc", "--x=1e999999"}, {"n", "x"});
  try {
    (void)args.get_int("n", 0);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad value for --n: abc");
  }
  EXPECT_THROW((void)args.get_double("x", 0), std::invalid_argument);
  // Trailing text is an error, not dropped: "1e6" must not read as 1.
  for (const char* bad : {"--n=1e6", "--n=12x", "--n=", "--n=9000000000g"}) {
    EXPECT_THROW((void)parse({bad}, {"n"}).get_int("n", 0),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)parse({"--x=0.5s"}, {"x"}).get_double("x", 0),
               std::invalid_argument);
  EXPECT_EQ(parse({"--n=-3k"}, {"n"}).get_int("n", 0), -3072);
}

TEST(Cli, NonFlagArgumentThrows) {
  EXPECT_THROW(parse({"positional"}, {"n"}), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.begin_row();
  t.add_int(1);
  t.add_cell("x");
  t.begin_row();
  t.add_int(22222);
  t.add_cell("yy");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header row, rule, two data rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
}

TEST(Table, CsvOutput) {
  TablePrinter t({"x", "y"});
  t.begin_row();
  t.add_num(1.5);
  t.add_int(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1.5,2\n");
}

TEST(Table, NumPrecision) {
  TablePrinter t({"v"});
  t.begin_row();
  t.add_num(3.14159265358979, 3);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "v\n3.14\n");
}

}  // namespace
}  // namespace hpsum::util
