/**
 * @file
 * Unit tests for the text-table formatter.
 */

#include <gtest/gtest.h>

#include "common/table.hh"

namespace bvf
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"A", "Long", "C"});
    t.row({"xx", "y", "zzz"});
    const std::string out = t.str();
    // Header, separator, one row.
    EXPECT_NE(out.find("A   Long  C"), std::string::npos);
    EXPECT_NE(out.find("xx  y     zzz"), std::string::npos);
}

TEST(TextTable, TitleRendered)
{
    TextTable t("My Title");
    t.row({"a"});
    EXPECT_NE(t.str().find("== My Title =="), std::string::npos);
}

TEST(TextTable, ShortRowsPadded)
{
    TextTable t;
    t.header({"A", "B"});
    t.row({"only"});
    // Must not crash, and renders the single cell.
    EXPECT_NE(t.str().find("only"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(42.0, 0), "42");
    EXPECT_EQ(TextTable::pct(0.215), "21.5%");
    EXPECT_EQ(TextTable::pct(-0.05, 0), "-5%");
}

TEST(TextTable, NoTrailingSpaces)
{
    TextTable t;
    t.header({"A", "B"});
    t.row({"x", "y"});
    const std::string out = t.str();
    std::size_t pos = 0;
    while ((pos = out.find('\n', pos)) != std::string::npos) {
        if (pos > 0) {
            EXPECT_NE(out[pos - 1], ' ');
        }
        ++pos;
    }
}

} // namespace
} // namespace bvf
