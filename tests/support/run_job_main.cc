/**
 * @file
 * The gtest main of the test binaries that run sandboxed jobs: a
 * sandboxed attempt spawns a copy of the running program as its job
 * runner (service/job_runner.hh), so the binary must be one.
 */

#include <gtest/gtest.h>

#include "service/job_runner.hh"

int
main(int argc, char **argv)
{
    if (nuca::service::spawnedAsRunner(argc, argv))
        return nuca::service::runJobMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
