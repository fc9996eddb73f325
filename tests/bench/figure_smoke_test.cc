/**
 * @file
 * Every figure of the registry runs end to end through figureMain,
 * nuca_figures' main, on a tiny configuration (one mix, short
 * windows, a short miss-curve replay) and prints a report. Guards
 * the harness wiring of each figure; the registry is the list.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "figures.hh"

namespace nuca {
namespace bench {
namespace {

const char *const smokeEnv[][2] = {{"REPRO_MIXES", "1"},
                                   {"REPRO_WARMUP_CYCLES", "20000"},
                                   {"REPRO_MEASURE_CYCLES", "40000"},
                                   {"REPRO_FIG3_INSTS", "200000"}};

class FigureSmoke : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override
    {
        for (const auto &[name, value] : smokeEnv)
            ::setenv(name, value, 1);
    }
    void TearDown() override
    {
        for (const auto &[name, value] : smokeEnv)
            ::unsetenv(name);
    }
};

TEST_P(FigureSmoke, RunsAndReports)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(figureMain(GetParam()), 0);
    EXPECT_NE(testing::internal::GetCapturedStdout(), "");
}

std::vector<std::string>
registryNames()
{
    std::vector<std::string> names;
    for (const Figure &figure : figures())
        names.push_back(figure.name);
    return names;
}

TEST(FigureNames, UnknownNameListsEveryFigure)
{
    std::string names;
    for (const std::string &name : registryNames())
        names += (names.empty() ? "" : "|") + name;
    testing::internal::CaptureStderr();
    EXPECT_EQ(figureMain("fig04"), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "nuca_figures: unknown figure \"fig04\"\n"
              "usage: nuca_figures <" + names + ">\n");
}

INSTANTIATE_TEST_SUITE_P(
    Registry, FigureSmoke, ::testing::ValuesIn(registryNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace bench
} // namespace nuca
