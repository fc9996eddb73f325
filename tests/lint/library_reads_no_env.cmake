# Fails when library code reads the environment: every getenv /
# envOr( / envString( / *FromEnv( call and every include of
# sim/env_config.hh under src/ must live in src/sim/env_config.*, the
# one module that turns REPRO_* variables into typed config.
#   cmake -DSRC_DIR=<repo>/src -P library_reads_no_env.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT SRC_DIR)
    message(FATAL_ERROR "pass -DSRC_DIR=<repo>/src")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.cc" "${SRC_DIR}/*.hh")
set(offenders "")
foreach(path IN LISTS sources)
    if(path MATCHES "/sim/env_config\\.(cc|hh)$")
        continue()
    endif()
    file(STRINGS "${path}" hits REGEX
        "getenv|envOr\\(|envString\\(|FromEnv\\(|#include \"sim/env_config\\.hh\"")
    if(hits)
        file(RELATIVE_PATH rel "${SRC_DIR}" "${path}")
        list(LENGTH hits count)
        list(APPEND offenders "src/${rel} (${count} lines)")
    endif()
endforeach()

if(offenders)
    list(JOIN offenders "\n  " report)
    message(FATAL_ERROR
        "library code reads the environment; move it to "
        "src/sim/env_config.* and pass typed config instead:\n  "
        "${report}")
endif()
message(STATUS "library reads no environment: ok")
