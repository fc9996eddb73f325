#include "sim/parallel_runner.hh"

#include <cstdio>

#include "base/cpu_budget.hh"

namespace nuca {

WorkerPool::WorkerPool(unsigned workers, Claim claim, Run run)
{
    TraceEventLog &log = TraceEventLog::global();
    // Counted before any of them starts, so the first worker to build
    // a system already sees its siblings (base/cpu_budget.hh).
    cpu_budget::addSimulating(static_cast<int>(workers));
    threads_.reserve(workers);
    for (unsigned k = 0; k < workers; ++k) {
        // Distinct tracks keep concurrent job spans apart in the
        // exported trace.
        const int track =
            log.enabled()
                ? log.newThread(TraceEventLog::kHostPid,
                                "worker " + std::to_string(k))
                : static_cast<int>(k);
        threads_.emplace_back([claim, run, track] {
            const cpu_budget::WorkerThread counted;
            while (const std::optional<std::size_t> index = claim())
                run(*index, track);
        });
    }
}

WorkerPool::~WorkerPool()
{
    join();
}

void
WorkerPool::join()
{
    for (std::thread &thread : threads_) {
        if (thread.joinable())
            thread.join();
    }
}

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
