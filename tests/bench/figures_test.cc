/**
 * @file
 * The figure registry end to end: a figure that runs several sweeps
 * (fig10: today's and the scaled technology) writes one REPRO_JSON
 * document and one resume sidecar for all of them, so a failure in
 * its second sweep resumes without re-simulating the first; fig05's
 * per-application runs resume the same way.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "figures.hh"
#include "sim/sweep_store.hh"
#include "support/sweep_records.hh"
#include "workload/spec_profiles.hh"

namespace nuca {
namespace bench {
namespace {

class FigureSweep : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        clear();
        ::setenv("REPRO_MIXES", "1", 1);
        ::setenv("REPRO_WARMUP_CYCLES", "20000", 1);
        ::setenv("REPRO_MEASURE_CYCLES", "40000", 1);
        ::setenv("REPRO_JOBS", "2", 1);
    }
    void TearDown() override { clear(); }

    static void clear()
    {
        for (const char *name :
             {"REPRO_MIXES", "REPRO_WARMUP_CYCLES", "REPRO_MEASURE_CYCLES",
              "REPRO_JOBS", "REPRO_JSON", "REPRO_FAULT", "REPRO_FAIL",
              "REPRO_RESUME"})
            ::unsetenv(name);
    }
};

std::set<std::string>
labelsIn(const std::string &path)
{
    std::set<std::string> labels;
    const json::Value doc = json::Value::parse(json::readFile(path));
    const json::Value &results = doc.at("results");
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results.at(i).contains("status"));
        labels.insert(results.at(i).at("label").asString());
    }
    EXPECT_EQ(results.size(), labels.size());
    return labels;
}

const std::set<std::string> fig10Labels = {
    "private", "shared", "adaptive", "private*", "shared*", "adaptive*"};

TEST_F(FigureSweep, Fig10DocumentHoldsBothSweeps)
{
    const std::string path = testing::TempDir() + "fig10_doc.json";
    ::setenv("REPRO_JSON", path.c_str(), 1);
    EXPECT_EQ(figureMain("fig10"), 0);
    EXPECT_EQ(labelsIn(path), fig10Labels);
    std::remove(path.c_str());
}

TEST_F(FigureSweep, ResumeAfterAScaledJobFailsReusesEveryCompletedJob)
{
    const std::string path = testing::TempDir() + "fig10_resume.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    ::setenv("REPRO_JSON", path.c_str(), 1);

    // Job 4 is shared* (jobs 3-5 are the scaled sweep); the abort
    // policy throws once the pool drains, keeping the sidecar.
    ::setenv("REPRO_FAULT", "throw_job:4", 1);
    EXPECT_THROW(figureMain("fig10"), SimulationError);
    std::size_t completed = 0;
    for (const auto &record : loadRecords(sidecar))
        completed += record.status == JobStatus::Ok;
    EXPECT_GE(completed, 4u); // the whole first sweep, and private*

    ::unsetenv("REPRO_FAULT");
    ::setenv("REPRO_RESUME", "1", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(figureMain("fig10"), 0);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("resume: reusing " + std::to_string(completed) +
                       " of 6 results"),
              std::string::npos)
        << err;
    EXPECT_EQ(labelsIn(path), fig10Labels);
    std::FILE *f = std::fopen(sidecar.c_str(), "rb");
    EXPECT_EQ(f, nullptr); // a clean finish removes the sidecar
    if (f)
        std::fclose(f);
    std::remove(path.c_str());
}

TEST_F(FigureSweep, Fig05ResumesASkippedJobIntoTheCleanTable)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(figureMain("fig05"), 0);
    const std::string clean = testing::internal::GetCapturedStdout();
    EXPECT_NE(clean.find("misclassified: "), std::string::npos) << clean;

    const std::string path = testing::TempDir() + "fig05_resume.json";
    const std::string sidecar = SweepStore::sidecarPathFor(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    ::setenv("REPRO_JSON", path.c_str(), 1);

    // Job 3 fails; the skip policy prints it as failed and finishes
    // the other 23, which reach the sidecar.
    ::setenv("REPRO_FAIL", "skip", 1);
    ::setenv("REPRO_FAULT", "throw_job:3", 1);
    testing::internal::CaptureStdout();
    EXPECT_EQ(figureMain("fig05"), 0);
    const std::string skipped = testing::internal::GetCapturedStdout();
    char failedRow[64];
    std::snprintf(failedRow, sizeof(failedRow), "\n%-10s failed\n",
                  allProfileNames().at(3).c_str());
    EXPECT_NE(skipped.find(failedRow), std::string::npos) << skipped;
    // The failed job is left out of the count (this short window
    // classifies some light applications as intensive).
    EXPECT_NE(skipped.find(" of 23\n"), std::string::npos) << skipped;

    ::unsetenv("REPRO_FAULT");
    ::setenv("REPRO_RESUME", "1", 1);
    testing::internal::CaptureStderr();
    testing::internal::CaptureStdout();
    EXPECT_EQ(figureMain("fig05"), 0);
    const std::string resumed = testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("resume: reusing 23 of 24 results"),
              std::string::npos)
        << err;
    EXPECT_EQ(resumed, clean);
    EXPECT_EQ(labelsIn(path).size(), 24u);
    std::remove(path.c_str());
}

} // namespace
} // namespace bench
} // namespace nuca
