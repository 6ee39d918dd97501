/**
 * @file
 * Argument parser tests.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/args.hh"

#include "sim_error_util.hh"

using namespace bsim;

namespace
{

/** Build argv from strings. */
struct Argv
{
    explicit Argv(std::vector<std::string> a) : strings(std::move(a))
    {
        ptrs.push_back("prog");
        for (const auto &s : strings)
            ptrs.push_back(s.c_str());
    }
    int argc() const { return int(ptrs.size()); }
    const char *const *argv() const { return ptrs.data(); }
    std::vector<std::string> strings;
    std::vector<const char *> ptrs;
};

ArgParser
makeParser()
{
    ArgParser p("prog", "test program");
    p.addFlag("verbose", "be chatty");
    p.addOption("workload", "swim", "benchmark");
    p.addOption("count", "100", "how many");
    return p;
}

} // namespace

TEST(Args, DefaultsWhenAbsent)
{
    ArgParser p = makeParser();
    Argv a({});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_FALSE(p.flag("verbose"));
    EXPECT_EQ(p.str("workload"), "swim");
    EXPECT_EQ(p.u64("count"), 100u);
    EXPECT_FALSE(p.given("workload"));
}

TEST(Args, SpaceSeparatedValue)
{
    ArgParser p = makeParser();
    Argv a({"--workload", "mcf"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_EQ(p.str("workload"), "mcf");
    EXPECT_TRUE(p.given("workload"));
}

TEST(Args, EqualsValue)
{
    ArgParser p = makeParser();
    Argv a({"--count=42"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_EQ(p.u64("count"), 42u);
}

TEST(Args, FlagPresence)
{
    ArgParser p = makeParser();
    Argv a({"--verbose"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_TRUE(p.flag("verbose"));
}

TEST(Args, UnknownOptionRejected)
{
    ArgParser p = makeParser();
    Argv a({"--bogus"});
    std::ostringstream err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), err));
    EXPECT_NE(err.str().find("unknown option"), std::string::npos);
    EXPECT_FALSE(p.helpRequested());
}

TEST(Args, MissingValueRejected)
{
    ArgParser p = makeParser();
    Argv a({"--workload"});
    std::ostringstream err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), err));
    EXPECT_NE(err.str().find("requires a value"), std::string::npos);
}

TEST(Args, FlagWithValueRejected)
{
    ArgParser p = makeParser();
    Argv a({"--verbose=1"});
    std::ostringstream err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), err));
    EXPECT_NE(err.str().find("takes no value"), std::string::npos);
}

TEST(Args, HelpRequested)
{
    ArgParser p = makeParser();
    Argv a({"--help"});
    std::ostringstream err;
    EXPECT_FALSE(p.parse(a.argc(), a.argv(), err));
    EXPECT_TRUE(p.helpRequested());
    EXPECT_NE(err.str().find("usage: prog"), std::string::npos);
    EXPECT_NE(err.str().find("--workload"), std::string::npos);
    EXPECT_NE(err.str().find("default: swim"), std::string::npos);
}

TEST(Args, PositionalCollected)
{
    ArgParser p = makeParser();
    Argv a({"one", "--verbose", "two"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "one");
    EXPECT_EQ(p.positional()[1], "two");
}

TEST(ArgsDeath, NonNumericU64Fatal)
{
    ArgParser p = makeParser();
    Argv a({"--count", "abc"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_SIM_ERROR(p.u64("count"), bsim::ErrorCategory::Config,
                     "not a number");
}

TEST(ArgsDeath, UndeclaredAccessPanics)
{
    ArgParser p = makeParser();
    EXPECT_DEATH(p.flag("nope"), "not a declared flag");
    EXPECT_DEATH(p.str("nope"), "not a declared option");
}

TEST(Args, LastValueWins)
{
    ArgParser p = makeParser();
    Argv a({"--count=1", "--count=2"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_EQ(p.u64("count"), 2u);
}

TEST(Args, NegativeU64Rejected)
{
    // strtoull would wrap "-1" to 2^64 - 1; it is a config error.
    ArgParser p = makeParser();
    Argv a({"--count", "-1"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_SIM_ERROR(p.u64("count"), bsim::ErrorCategory::Config,
                     "is negative");
    EXPECT_SIM_ERROR(p.u32("count"), bsim::ErrorCategory::Config,
                     "is negative");
    EXPECT_SIM_ERROR(ArgParser::parseU64("count", " -7"),
                     bsim::ErrorCategory::Config, "is negative");
}

TEST(Args, U64OutOfRangeRejected)
{
    ArgParser p = makeParser();
    Argv a({"--count", "99999999999999999999999"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_SIM_ERROR(p.u64("count"), bsim::ErrorCategory::Config,
                     "out of range");
    EXPECT_EQ(ArgParser::parseU64("count", "10", 10), 10u);
    EXPECT_SIM_ERROR(ArgParser::parseU64("count", "11", 10),
                     bsim::ErrorCategory::Config, "out of range");
}

TEST(Args, U32RejectsWhatDoesNotFitUnsigned)
{
    // The tools narrow these options to unsigned; a larger value would
    // wrap silently. Headroom covers callers that add one (--retries).
    ArgParser p = makeParser();
    Argv a({"--count", "4294967296"});
    std::ostringstream err;
    ASSERT_TRUE(p.parse(a.argc(), a.argv(), err));
    EXPECT_SIM_ERROR(p.u32("count"), bsim::ErrorCategory::Config,
                     "out of range");

    ArgParser q = makeParser();
    Argv b({"--count", "4294967295"});
    ASSERT_TRUE(q.parse(b.argc(), b.argv(), err));
    EXPECT_EQ(q.u32("count"), 4294967295u);
    EXPECT_SIM_ERROR(q.u32("count", 1), bsim::ErrorCategory::Config,
                     "out of range");
}

TEST(Args, SecondsAreFiniteAndNonNegative)
{
    // strtod reads "nan" and "inf"; a NaN heartbeat period would turn
    // the heartbeat off and skip the campaign's deadline check.
    ArgParser p("prog");
    p.addOption("period", "0.25", "seconds");
    std::ostringstream err;
    Argv none({});
    ASSERT_TRUE(p.parse(none.argc(), none.argv(), err));
    EXPECT_EQ(p.seconds("period"), 0.25);
    for (const char *ok : {"0", "1.5", "2e1"}) {
        ArgParser q("prog");
        q.addOption("period", "0", "seconds");
        Argv a({"--period", ok});
        ASSERT_TRUE(q.parse(a.argc(), a.argv(), err));
        EXPECT_EQ(q.seconds("period"), std::stod(ok)) << ok;
    }
    for (const char *bad :
         {"nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1", "", "x",
          "1s"}) {
        ArgParser q("prog");
        q.addOption("period", "0", "seconds");
        Argv a({"--period", bad});
        ASSERT_TRUE(q.parse(a.argc(), a.argv(), err));
        EXPECT_SIM_ERROR(q.seconds("period"), bsim::ErrorCategory::Config,
                         "option --period: '" + std::string(bad) +
                             "' is not a finite, non-negative number");
    }
}

TEST(Args, ParseU64NamesTheOption)
{
    // The campaign parses each --only-shards id through this path, so
    // "x" is an error and not shard 0.
    EXPECT_SIM_ERROR(ArgParser::parseU64("only-shards", "x"),
                     bsim::ErrorCategory::Config,
                     "option --only-shards: 'x' is not a number");
    EXPECT_EQ(ArgParser::parseU64("only-shards", "3"), 3u);
}
