#include "sim/proc_pool.hh"

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>

#include "sim/robustness.hh"
#include "sim/sweep_store.hh"

extern char **environ;

namespace nuca {

void
ProcJobHandle::requestPreempt()
{
    preempt.store(true, std::memory_order_relaxed);
    // The pid is cleared before the child is reaped (at pipe EOF the
    // child is dead-or-zombie), so this signal can only land on our
    // own live-or-zombie child, never a recycled pid.
    const long long p = pid.load(std::memory_order_relaxed);
    if (p > 0)
        ::kill(static_cast<pid_t>(p), SIGTERM);
}

std::string
describeSignal(int sig)
{
    // A fixed table, not strsignal(): the names land in sidecar
    // records that tests and tooling grep, so they must not vary
    // with libc locale or version.
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV (segmentation fault)";
      case SIGABRT:
        return "SIGABRT (abort)";
      case SIGBUS:
        return "SIGBUS (bus error)";
      case SIGILL:
        return "SIGILL (illegal instruction)";
      case SIGFPE:
        return "SIGFPE (arithmetic exception)";
      case SIGKILL:
        return "SIGKILL (killed; possible OOM kill)";
      case SIGTERM:
        return "SIGTERM (terminated)";
      case SIGXCPU:
        return "SIGXCPU (CPU time limit exceeded)";
      default:
        return "signal " + std::to_string(sig);
    }
}

std::string
settlementLine(const std::function<MixResult()> &job)
{
    std::string line;
    json::Writer record(line);
    record.beginObject();
    try {
        const MixResult result = job();
        writeMixResultMembers(record, result);
        record.key("status");
        record.string("ok");
    } catch (...) {
        const std::exception_ptr failure = std::current_exception();
        record.key("status");
        record.string(to_string(classifyFailure(failure)));
        record.key("error");
        record.string(failureMessage(failure));
    }
    record.endObject();
    line += '\n';
    return line;
}

namespace {

/** A JobCrashed naming the call that failed and its errno. */
JobCrashed
sandboxError(const std::string &what, int err)
{
    return JobCrashed("sandbox: " + what + " failed (" +
                      std::strerror(err) + ")");
}

/** A descriptor closed with the object; -1 once it is closed. */
struct Fd
{
    int fd;

    explicit Fd(int f) : fd(f) {}
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    ~Fd() { reset(); }

    void
    reset()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
};

/** Parent-side watch result: the child's full pipe output plus
 *  whether the wall-clock deadline forced an escalation. */
struct WatchResult
{
    std::string payload;
    bool timedOut = false;
    bool killed = false; ///< escalated all the way to SIGKILL
};

/**
 * Drain the child's pipe to EOF, enforcing the wall-clock deadline:
 * past it the child gets SIGTERM, after graceMs more SIGKILL. The
 * pipe (not waitpid) is the progress signal — EOF means the child
 * and any descendants closed the write end, almost always by dying.
 */
WatchResult
watchChild(int fd, pid_t pid, const ProcIsolation &iso)
{
    using Clock = std::chrono::steady_clock;
    WatchResult watch;
    const bool deadline = iso.timeoutS != 0;
    const auto start = Clock::now();
    const auto term_at = start + std::chrono::seconds(iso.timeoutS);
    const auto kill_at =
        term_at + std::chrono::milliseconds(iso.graceMs);

    char buf[4096];
    for (;;) {
        // Block until EOF when there is no deadline left to arm:
        // none configured, or SIGKILL already sent (unblockable, so
        // EOF is guaranteed; polling again would only spin).
        int wait_ms = -1;
        if (deadline && !watch.killed) {
            const auto now = Clock::now();
            const auto next = watch.timedOut ? kill_at : term_at;
            wait_ms = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    next - now)
                    .count());
            if (wait_ms < 0)
                wait_ms = 0;
        }
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready > 0) {
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (n == 0)
                break; // EOF: the child is done (or dead)
            watch.payload.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        // poll timed out: a deadline boundary passed. Escalate.
        if (!watch.timedOut) {
            watch.timedOut = true;
            ::kill(pid, SIGTERM);
        } else if (!watch.killed) {
            watch.killed = true;
            ::kill(pid, SIGKILL);
        }
        // After SIGKILL the read loop still runs: EOF arrives as
        // soon as the kernel reaps the write end.
    }
    return watch;
}

/** waitpid riding out EINTR; returns the raw status word. */
int
awaitChild(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

/** Decode a clean child's JSON settlement line; throws the typed
 *  failure the child shipped, returns its result otherwise. */
MixResult
settleWire(const std::string &payload)
{
    // One pass over the line's object: "status" and "error" here,
    // the result's members into the reader; the last of a repeated
    // member counts, as in a json::Value.
    json::Cursor in(payload);
    in.skipWs();
    std::optional<std::string> status, error;
    MixResultReader reader;
    const auto member = [&](const std::string &name, unsigned depth) {
        if (name == "status")
            return in.maybeString(status, depth);
        if (name == "error")
            return in.maybeString(error, depth);
        return reader.member(in, name, depth);
    };
    const bool parsed = in.canEnter(0) && in.peek() == '{' &&
                        in.object(0, member) && in.atDocumentEnd();
    if (parsed && status) {
        const JobStatus settled = jobStatusFromString(*status);
        if (settled != JobStatus::Ok) {
            rethrowAs(settled, error && !error->empty()
                                   ? *error
                                   : "isolated job failed");
        }
        // a mistyped payload is no result at all
        if (std::optional<MixResult> result = reader.take())
            return std::move(*result);
    }
    throw JobCrashed("isolated job exited cleanly but returned no "
                     "parsable result");
}

} // namespace

MixResult
runSandboxed(const ProcIsolation &iso,
             const std::vector<std::string> &argv,
             const std::string &request, ProcJobHandle *handle)
{
    // The request is in a memory file, not a pipe, so it is whole
    // before the child exists whatever its size, and a child that
    // dies without reading it cannot raise SIGPIPE here. The memory
    // file and both pipe ends are close-on-exec: the child gets its
    // two through the spawn's dup2s, and no sibling worker's spawn
    // can carry them past its exec.
    const Fd request_in(::memfd_create("job-request", MFD_CLOEXEC));
    if (request_in.fd < 0)
        throw sandboxError("memfd_create", errno);
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n = ::write(request_in.fd, request.data() + off,
                                  request.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            throw sandboxError("writing the job request", errno);
        off += static_cast<std::size_t>(n);
    }
    if (::lseek(request_in.fd, 0, SEEK_SET) != 0)
        throw sandboxError("rewinding the job request", errno);
    int ends[2];
    if (::pipe2(ends, O_CLOEXEC) != 0)
        throw sandboxError("pipe2", errno);
    const Fd settlement_in(ends[0]);
    Fd settlement_out(ends[1]);

    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, request_in.fd,
                                       STDIN_FILENO);
    ::posix_spawn_file_actions_adddup2(&actions, settlement_out.fd,
                                       settlementFd);
    // SIGTERM and SIGINT stay blocked until the runner has chosen
    // their dispositions (see the contract above).
    posix_spawnattr_t attr;
    ::posix_spawnattr_init(&attr);
    sigset_t mask;
    ::pthread_sigmask(SIG_BLOCK, nullptr, &mask);
    sigaddset(&mask, SIGTERM);
    sigaddset(&mask, SIGINT);
    ::posix_spawnattr_setsigmask(&attr, &mask);
    ::posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGMASK);

    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, args[0], &actions, &attr,
                                      args.data(), environ);
    ::posix_spawnattr_destroy(&attr);
    ::posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0)
        throw sandboxError("spawning " + argv[0], spawned);
    // Only the child holds the write end now, so the settlement pipe
    // reaches EOF when the child (and anything it spawned) is gone.
    settlement_out.reset();

    if (handle != nullptr) {
        handle->pid.store(pid, std::memory_order_relaxed);
        // A preempt that raced the spawn: deliver it now that there
        // is a child to deliver it to.
        if (handle->preempt.load(std::memory_order_relaxed))
            ::kill(pid, SIGTERM);
    }
    const WatchResult watch = watchChild(settlement_in.fd, pid, iso);
    // EOF means the child closed its pipe end (dead or exiting), so
    // its pid cannot be recycled until we reap it below: clearing
    // the handle here closes the requestPreempt() pid-reuse window.
    if (handle != nullptr)
        handle->pid.store(0, std::memory_order_relaxed);
    const int status = awaitChild(pid);

    if (watch.timedOut) {
        throw JobTimedOut(
            "isolated job exceeded its " +
            std::to_string(iso.timeoutS) +
            " s wall-clock deadline (SIGTERM" +
            (watch.killed ? " escalated to SIGKILL after " +
                                std::to_string(iso.graceMs) +
                                " ms grace"
                          : "") +
            ")");
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        if (sig == SIGXCPU) {
            throw JobTimedOut("isolated job exceeded its " +
                              std::to_string(iso.cpuS) +
                              " s CPU limit (" + describeSignal(sig) +
                              ")");
        }
        throw JobCrashed("isolated job killed by " +
                         describeSignal(sig));
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        const int code = WEXITSTATUS(status);
        std::string what;
        if (code == 124)
            what = "isolated job could not apply its resource "
                   "limits (setrlimit failed)";
        else if (code == 123)
            what = "isolated job could not write its result pipe";
        else
            what = "isolated job exited with status " +
                   std::to_string(code);
        throw JobCrashed(what);
    }
    return settleWire(watch.payload);
}

} // namespace nuca
