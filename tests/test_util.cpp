/**
 * @file
 * Unit tests for the util module: error macros, table printer, options.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "util/error.hpp"
#include "util/fastdiv.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace declust {
namespace {

TEST(FastDiv, MatchesPlainDivisionForU32Dividends)
{
    // Every divisor the layouts actually install is a product of small
    // design parameters; sweep a wider set plus edge divisors.
    for (std::uint32_t d :
         {1u, 2u, 3u, 7u, 12u, 25u, 84u, 105u, 399u, 1344u, 11388u,
          65535u, 1u << 16, (1u << 31) - 1, 0xffffffffu}) {
        const FastDiv div(d);
        EXPECT_EQ(div.divisor(), d);
        for (std::uint32_t n :
             {0u, 1u, d - 1, d, d + 1, 2 * d + 3, 123456789u,
              0xfffffffeu, 0xffffffffu}) {
            EXPECT_EQ(div.quot(n), n / d) << n << " / " << d;
            EXPECT_EQ(div.rem(n), n % d) << n << " % " << d;
        }
    }
}

TEST(FastDiv, Quot64MatchesPlainDivisionPastU32Range)
{
    for (std::uint32_t d : {1u, 3u, 84u, 11388u, 0xffffffffu}) {
        const FastDiv div(d);
        for (std::int64_t n :
             {std::int64_t{0}, std::int64_t{0xffffffff},
              std::int64_t{0x100000000}, std::int64_t{1} << 40,
              (std::int64_t{1} << 62) + 12345}) {
            EXPECT_EQ(div.quot64(n), n / d) << n << " / " << d;
            EXPECT_EQ(div.rem64(n), n % d) << n << " % " << d;
        }
    }
}

TEST(FastDiv, ExhaustiveSmallDivisorSweep)
{
    // Dense check where the layouts live: all divisors up to 2 * 21 * 21
    // against a stride of dividends.
    for (std::uint32_t d = 1; d <= 882; ++d) {
        const FastDiv div(d);
        for (std::uint32_t n = 0; n < 40 * d; n += 7) {
            ASSERT_EQ(div.quot(n), n / d) << n << " / " << d;
            ASSERT_EQ(div.rem(n), n % d) << n << " % " << d;
        }
    }
}

TEST(Error, PanicThrowsInternalError)
{
    EXPECT_THROW(DECLUST_PANIC("boom ", 42), InternalError);
}

TEST(Error, FatalThrowsConfigError)
{
    EXPECT_THROW(DECLUST_FATAL("bad config ", "x"), ConfigError);
}

TEST(Error, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(DECLUST_ASSERT(1 + 1 == 2, "fine"));
}

TEST(Error, AssertThrowsOnFalse)
{
    EXPECT_THROW(DECLUST_ASSERT(false, "nope"), InternalError);
}

TEST(Error, MessagesIncludeDetail)
{
    try {
        DECLUST_PANIC("value was ", 7);
        FAIL() << "should have thrown";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Error, ConfigErrorNamesOnlyTheMistake)
{
    // A configuration error is the user's mistake: what() is the message
    // alone, with no source location. A panic keeps `panic: file:line:`.
    try {
        DECLUST_FATAL("stripe size G=", 1, " is too small");
        FAIL() << "should have thrown";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()), "stripe size G=1 is too small");
    }
    try {
        DECLUST_PANIC("broken");
        FAIL() << "should have thrown";
    } catch (const InternalError &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("panic: ", 0), 0u);
        EXPECT_NE(what.find("test_util.cpp:"), std::string::npos);
    }
}

TEST(Table, AlignsColumns)
{
    TablePrinter t({"a", "long-header"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRows)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), InternalError);
}

TEST(Table, CsvOutput)
{
    TablePrinter t({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, FmtDouble)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

TEST(Options, DefaultsAndParsing)
{
    Options opts("test");
    opts.add("rate", "105", "rate");
    opts.add("alpha", "0.25", "alpha");
    opts.addFlag("csv", "emit csv");
    const char *argv[] = {"prog", "--rate", "210", "--csv"};
    ASSERT_TRUE(opts.parse(4, const_cast<char **>(argv)));
    EXPECT_EQ(opts.getInt("rate"), 210);
    EXPECT_DOUBLE_EQ(opts.getDouble("alpha"), 0.25);
    EXPECT_TRUE(opts.getFlag("csv"));
}

TEST(Options, EqualsSyntax)
{
    Options opts("test");
    opts.add("g", "4", "stripe size");
    const char *argv[] = {"prog", "--g=10"};
    ASSERT_TRUE(opts.parse(2, const_cast<char **>(argv)));
    EXPECT_EQ(opts.getInt("g"), 10);
}

TEST(Options, UnknownOptionFails)
{
    Options opts("test");
    const char *argv[] = {"prog", "--mystery", "1"};
    EXPECT_FALSE(opts.parse(3, const_cast<char **>(argv)));
}

TEST(Options, ListParsing)
{
    Options opts("test");
    opts.add("rates", "105,210,378", "rates");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(opts.parse(1, const_cast<char **>(argv)));
    const auto rates = opts.getIntList("rates");
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_EQ(rates[0], 105);
    EXPECT_EQ(rates[2], 378);
}

} // namespace
} // namespace declust
