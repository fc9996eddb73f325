#include "service/client.hh"

#include <chrono>
#include <cstdio>
#include <thread>

#include "sim/job_status.hh"

#if defined(__unix__) || defined(__APPLE__)
#define NUCA_SERVICE_HAVE_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define NUCA_SERVICE_HAVE_SOCKETS 0
#endif

namespace nuca {
namespace service {

SweepClient::SweepClient(std::string socketPath)
    : socket_(std::move(socketPath))
{
}

#if NUCA_SERVICE_HAVE_SOCKETS

json::Value
SweepClient::request(const json::Value &req) const
{
    sockaddr_un addr{};
    if (socket_.size() >= sizeof(addr.sun_path))
        throw ClientError("socket path too long: " + socket_);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw ClientError("socket() failed");
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  socket_.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        throw ClientError("cannot connect to " + socket_ +
                          " (is nuca_sweepd running?)");
    }

    const std::string out = req.dump() + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t w =
            ::write(fd, out.data() + sent, out.size() - sent);
        if (w <= 0) {
            ::close(fd);
            throw ClientError("write to " + socket_ + " failed");
        }
        sent += static_cast<std::size_t>(w);
    }

    std::string line;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        line.append(chunk, static_cast<std::size_t>(n));
        if (line.find('\n') != std::string::npos)
            break;
    }
    ::close(fd);

    const std::size_t eol = line.find('\n');
    if (eol == std::string::npos)
        throw ClientError("no response from " + socket_);
    const auto response = json::Value::tryParse(line.substr(0, eol));
    if (!response)
        throw ClientError("unparsable response from " + socket_);
    return *response;
}

#else // !NUCA_SERVICE_HAVE_SOCKETS

json::Value
SweepClient::request(const json::Value &) const
{
    throw ClientError(
        "Unix-domain sockets are unavailable on this platform");
}

#endif // NUCA_SERVICE_HAVE_SOCKETS

namespace {

json::Value
opRequest(const char *op)
{
    json::Value req = json::Value::object();
    req.set("op", op);
    return req;
}

json::Value
idRequest(const char *op, std::uint64_t id)
{
    json::Value req = opRequest(op);
    req.set("id", id);
    return req;
}

bool
responseOk(const json::Value &resp)
{
    return resp.type() == json::Value::Type::Object &&
           resp.contains("ok") &&
           resp.at("ok").type() == json::Value::Type::Bool &&
           resp.at("ok").asBool();
}

std::string
responseError(const json::Value &resp)
{
    if (resp.type() == json::Value::Type::Object &&
        resp.contains("error") &&
        resp.at("error").type() == json::Value::Type::String)
        return resp.at("error").asString();
    return "daemon refused the request";
}

} // namespace

bool
SweepClient::ping(unsigned retries) const
{
    for (unsigned attempt = 0;; ++attempt) {
        try {
            return responseOk(request(opRequest("ping")));
        } catch (const ClientError &) {
            if (attempt >= retries)
                return false;
        }
        std::this_thread::sleep_for(std::chrono::seconds(1));
    }
}

json::Value
SweepClient::submit(const JobSpec &spec) const
{
    json::Value req = opRequest("submit");
    req.set("spec", spec.toJson());
    json::Value resp = request(req);
    if (!responseOk(resp))
        throw ClientError("submit rejected: " +
                          responseError(resp));
    return resp;
}

json::Value
SweepClient::status() const
{
    return request(opRequest("status"));
}

json::Value
SweepClient::result(std::uint64_t id) const
{
    return request(idRequest("result", id));
}

json::Value
SweepClient::waitResult(std::uint64_t id, std::uint64_t timeoutMs,
                        std::uint64_t pollMs) const
{
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        json::Value resp = result(id);
        const std::string state =
            resp.contains("state") ? resp.at("state").asString()
                                   : "unknown";
        // A refusal carries no state ("no such job"); it parses as
        // failed, which is terminal, rather than polling forever.
        const JobStatus status = jobStatusFromString(state);
        if (status == JobStatus::Ok || status == JobStatus::CacheHit)
            return resp;
        if (isTerminal(status))
            throw ClientError("job " + std::to_string(id) + " " +
                              state + ": " + responseError(resp));
        if (timeoutMs != 0) {
            const auto waited =
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (static_cast<std::uint64_t>(waited) >= timeoutMs)
                throw ClientError("timed out waiting for job " +
                                  std::to_string(id) +
                                  " (state " + state + ")");
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(pollMs));
    }
}

json::Value
SweepClient::preempt(std::uint64_t id) const
{
    return request(idRequest("preempt", id));
}

json::Value
SweepClient::cancel(std::uint64_t id) const
{
    return request(idRequest("cancel", id));
}

json::Value
SweepClient::drain() const
{
    return request(opRequest("drain"));
}

json::Value
SweepClient::stats() const
{
    return request(opRequest("stats"));
}

json::Value
SweepClient::shutdown() const
{
    return request(opRequest("shutdown"));
}

} // namespace service
} // namespace nuca
