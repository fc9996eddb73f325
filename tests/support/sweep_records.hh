/**
 * @file
 * Every record of a sweep sidecar or daemon journal, collected from
 * SweepStore::load's callback, for tests that inspect them together.
 */

#ifndef NUCA_TESTS_SUPPORT_SWEEP_RECORDS_HH
#define NUCA_TESTS_SUPPORT_SWEEP_RECORDS_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/sweep_store.hh"

namespace nuca {

/** The records of @p path, in file order. */
inline std::vector<SweepRecord>
loadRecords(const std::string &path)
{
    std::vector<SweepRecord> records;
    SweepStore::load(path, [&](SweepRecord &&record) {
        records.push_back(std::move(record));
    });
    return records;
}

} // namespace nuca

#endif // NUCA_TESTS_SUPPORT_SWEEP_RECORDS_HH
