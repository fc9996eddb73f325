/**
 * @file
 * SweepClient: the nuca_subctl side of the daemon protocol. One
 * request is one connection — connect, send one JSON line, read one
 * response line, close — which keeps the client trivially correct
 * under daemon restarts and makes every helper below a thin wrapper
 * over request().
 */

#ifndef NUCA_SERVICE_CLIENT_HH
#define NUCA_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>

#include "service/job_spec.hh"
#include "sim/json_writer.hh"

namespace nuca {
namespace service {

/** The daemon is unreachable or answered garbage. */
class ClientError : public SimulationError
{
  public:
    using SimulationError::SimulationError;
};

class SweepClient
{
  public:
    explicit SweepClient(std::string socketPath);

    /** Send one request line, return the parsed response line.
     *  @throws ClientError on connect/IO/parse failure. */
    json::Value request(const json::Value &req) const;

    /** True when the daemon answers a ping; retries once a second
     *  up to @p retries times (for just-started daemons). */
    bool ping(unsigned retries = 0) const;

    /** Submit @p spec; returns the full submit response
     *  (id/state/key). @throws ClientError when not ok. */
    json::Value submit(const JobSpec &spec) const;

    /** One status snapshot (all jobs). */
    json::Value status() const;

    /** One result poll for @p id (may not be done yet). */
    json::Value result(std::uint64_t id) const;

    /**
     * Poll until job @p id reaches a terminal state and return the
     * final result response. @throws ClientError when the job settled
     * anything but ok / cache_hit, the daemon refused the request, or
     * @p timeoutMs elapsed (0 = wait forever).
     */
    json::Value waitResult(std::uint64_t id,
                           std::uint64_t timeoutMs = 0,
                           std::uint64_t pollMs = 50) const;

    /** Ask the daemon to preempt / cancel job @p id. */
    json::Value preempt(std::uint64_t id) const;
    json::Value cancel(std::uint64_t id) const;

    json::Value drain() const;
    json::Value stats() const;
    json::Value shutdown() const;

    const std::string &socketPath() const { return socket_; }

  private:
    std::string socket_;
};

} // namespace service
} // namespace nuca

#endif // NUCA_SERVICE_CLIENT_HH
