/**
 * @file
 * A sandboxed attempt spawns a copy of the running program as its job
 * runner (service/job_runner.hh), so a program whose main never
 * checked for the runner flag must refuse the attempt instead of
 * spawning itself. This binary is such a program: its main answers
 * `--run-job` as a program that knows nothing of it would, with a
 * usage error and no work, so it never recurses into its own tests.
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "service/job_runner.hh"

namespace nuca {
namespace service {
namespace {

TEST(NotARunner, SandboxedAttemptThrowsInsteadOfSpawning)
{
    JobRequest request;
    request.spec.scheme = "private";
    request.spec.apps = {"mcf", "gzip", "ammp", "art"};
    request.spec.warmupCycles = 2000;
    request.spec.measureCycles = 8000;
    ProcIsolation iso;
    iso.enabled = true;
    try {
        runJobAttempt(iso, request);
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("not_a_runner_tests"), std::string::npos)
            << what;
        EXPECT_NE(what.find("spawnedAsRunner"), std::string::npos)
            << what;
    }
    // The same attempt without the sandbox runs here.
    iso.enabled = false;
    EXPECT_EQ(runJobAttempt(iso, request).ipc.size(), 4u);
}

} // namespace
} // namespace service
} // namespace nuca

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--run-job") == 0) {
            std::fprintf(stderr, "unknown argument %s\n", argv[i]);
            return 2;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
