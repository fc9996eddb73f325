#include "sim/robustness.hh"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace nuca {

namespace {

const std::pair<FaultKind, const char *> kFaultKindNames[] = {
    {FaultKind::None, "none"},
    {FaultKind::LruCorrupt, "lru_corrupt"},
    {FaultKind::MshrLeak, "mshr_leak"},
    {FaultKind::ChannelStall, "channel_stall"},
    {FaultKind::ThrowJob, "throw_job"},
    {FaultKind::SegvJob, "segv"},
    {FaultKind::OomJob, "oom"},
    {FaultKind::HangJob, "hang"},
    {FaultKind::SigtermJob, "sigterm"},
};

} // namespace

const char *
to_string(FaultKind kind)
{
    for (const auto &[k, name] : kFaultKindNames) {
        if (k == kind)
            return name;
    }
    panic("unknown fault kind");
}

FaultKind
faultKindFromString(const std::string &name)
{
    for (const auto &[k, n] : kFaultKindNames) {
        if (name == n)
            return k;
    }
    return FaultKind::None;
}

std::string
RobustnessConfig::problem() const
{
    if (checkEnabled && checkPeriod == 0)
        return "the invariant-check period (REPRO_CHECK_PERIOD) must "
               "be positive";
    if (watchdogEnabled && watchdogWindow == 0)
        return "the watchdog window (REPRO_WATCHDOG_WINDOW) must be "
               "positive";
    return "";
}

namespace {

/**
 * Allocate unboundedly until the allocator gives out. noexcept on
 * purpose: the bad_alloc raised once RLIMIT_AS is exhausted escapes a
 * noexcept frame and std::terminate()s the process (SIGABRT) —
 * modelling memory exhaustion that no handler survives, which is
 * what the proc pool's crash classification must catch. The chunks
 * are deliberately never touched, so without an address-space cap
 * the loop consumes virtual reservations, not physical memory, until
 * the (absurdly large) iteration cap aborts anyway.
 */
void
exhaustMemory() noexcept
{
    std::vector<char *> chunks;
    for (int i = 0; i < (1 << 20); ++i)
        chunks.push_back(new char[16u << 20]);
}

} // namespace

void
injectJobFault(const FaultSpec &fault, std::size_t job,
               const std::string &label)
{
    if (!fault.isJobFault() || fault.arg != job)
        return;
    switch (fault.kind) {
      case FaultKind::ThrowJob:
        throw SimulationError("fault injection: sweep job " +
                              std::to_string(job) + " (" + label +
                              ") threw");
      case FaultKind::SegvJob:
        std::raise(SIGSEGV);
        std::abort(); // raise cannot return from SIGSEGV's default
      case FaultKind::OomJob:
        exhaustMemory();
        std::abort(); // the iteration cap fired before the rlimit
      case FaultKind::HangJob:
        // Wedge without burning CPU: the wall-clock deadline, not
        // RLIMIT_CPU, is the detector under test.
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
      case FaultKind::SigtermJob:
        // Delivered to this very process, the sweep's: with the
        // graceful-stop handlers installed the flag goes up, this
        // job finishes normally, and the sweep winds down. Without
        // them the default disposition kills the process — which is
        // exactly why the supervisor installs the handlers first.
        std::raise(SIGTERM);
        return;
      default:
        return;
    }
}

namespace {

volatile std::sig_atomic_t g_sweep_signal = 0;
bool g_handlers_installed = false;
void (*g_prev_int)(int) = SIG_DFL;
void (*g_prev_term)(int) = SIG_DFL;

extern "C" void
sweepSignalHandler(int sig)
{
    // Second signal: the operator means it. _exit is async-signal-
    // safe; 128+sig is the shell's convention for signal deaths.
    if (g_sweep_signal != 0)
        ::_Exit(128 + sig);
    g_sweep_signal = sig;
}

} // namespace

void
installSweepInterruptHandlers()
{
    if (g_handlers_installed)
        return;
    // Each install opens a fresh interrupt window: a signal consumed
    // by a previous sweep must not abort this one.
    g_sweep_signal = 0;
    g_prev_int = std::signal(SIGINT, sweepSignalHandler);
    g_prev_term = std::signal(SIGTERM, sweepSignalHandler);
    g_handlers_installed = true;
}

void
restoreSweepInterruptHandlers()
{
    if (!g_handlers_installed)
        return;
    std::signal(SIGINT, g_prev_int);
    std::signal(SIGTERM, g_prev_term);
    g_handlers_installed = false;
}

bool
sweepInterruptRequested()
{
    return g_sweep_signal != 0;
}

int
sweepInterruptSignal()
{
    return static_cast<int>(g_sweep_signal);
}

void
clearSweepInterrupt()
{
    g_sweep_signal = 0;
}

} // namespace nuca
