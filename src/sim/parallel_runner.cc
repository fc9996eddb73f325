#include "sim/parallel_runner.hh"

#include <chrono>
#include <cstdio>

#include "base/logging.hh"
#include "sim/experiment.hh"

namespace nuca {

unsigned
jobsFromEnv()
{
    const auto jobs = envOr("REPRO_JOBS", 0);
    if (jobs != 0)
        return static_cast<unsigned>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace parallel_detail {

void
backoffSleep(unsigned delay_ms)
{
    if (delay_ms != 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms));
}

} // namespace parallel_detail

ProgressReporter::ProgressReporter(std::string label,
                                   std::size_t total, bool quiet)
    : label_(std::move(label)), total_(total),
      quiet_(quiet || total == 0)
{
}

void
ProgressReporter::redraw()
{
    if (quiet_)
        return;
    if (failed_ == 0) {
        std::fprintf(stderr, "  [%s] %zu/%zu\r", label_.c_str(),
                     done_, total_);
    } else if (crashed_ == 0) {
        std::fprintf(stderr, "  [%s] %zu/%zu (%zu failed)\r",
                     label_.c_str(), done_ + failed_, total_,
                     failed_);
    } else {
        std::fprintf(stderr,
                     "  [%s] %zu/%zu (%zu failed, %zu crashed)\r",
                     label_.c_str(), done_ + failed_, total_,
                     failed_, crashed_);
    }
    std::fflush(stderr);
}

void
ProgressReporter::settled(JobStatus status)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (status == JobStatus::Ok) {
        ++done_;
    } else {
        ++failed_;
        crashed_ += isCrash(status) ? 1 : 0;
    }
    redraw();
}

void
ProgressReporter::finish()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (quiet_ || finished_)
        return;
    finished_ = true;
    if (failed_ == 0) {
        std::fprintf(stderr, "  [%s] done (%zu jobs)      \n",
                     label_.c_str(), done_);
    } else if (crashed_ == 0) {
        std::fprintf(stderr,
                     "  [%s] done %zu/%zu (%zu failed)      \n",
                     label_.c_str(), done_, total_, failed_);
    } else {
        std::fprintf(
            stderr,
            "  [%s] done %zu/%zu (%zu failed, %zu crashed)      \n",
            label_.c_str(), done_, total_, failed_, crashed_);
    }
    std::fflush(stderr);
}

std::size_t
ProgressReporter::done() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return done_;
}

std::size_t
ProgressReporter::failures() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return failed_;
}

std::size_t
ProgressReporter::crashes() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return crashed_;
}

} // namespace nuca
