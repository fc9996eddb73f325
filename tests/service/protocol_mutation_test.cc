/**
 * @file
 * Decoder robustness for the sweep daemon's input: every single-byte
 * flip and every truncation (tests/support/mutation.hh) of a job spec
 * and of protocol request lines. JobSpec::fromJson may reject a
 * mutant only with SpecError, and any spec it accepts must re-encode
 * and parse back to the same encoding. SweepDaemon::handle must
 * answer every request line that parses with an {ok: bool} object
 * that itself encodes, and never throw.
 */

#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "service/job_spec.hh"
#include "service/sweepd.hh"
#include "sim/json_writer.hh"
#include "support/mutation.hh"

namespace {

using namespace nuca;
using namespace nuca::service;

JobSpec
mixSpec()
{
    JobSpec spec;
    spec.scheme = "private";
    spec.apps = {"mcf", "gzip", "ammp", "art"};
    spec.seed = (1ull << 53) + 1; // travels as a decimal string
    spec.warmupCycles = 20000;
    spec.measureCycles = 40000;
    spec.tenant = "lab";
    spec.priority = -2;
    spec.label = "fig06.mix3";
    return spec;
}

JobSpec
curveSpec()
{
    JobSpec spec;
    spec.kind = JobKind::MissCurve;
    spec.apps = {"swim"};
    spec.insts = 123456;
    return spec;
}

/** Decode @p obj as a spec; if accepted, require that it round-trips.
 *  @return whether it was accepted. */
bool
expectSpecRoundTrips(const json::Value &obj, const std::string &what)
{
    JobSpec spec;
    try {
        spec = JobSpec::fromJson(obj);
    } catch (const SpecError &) {
        return false; // the documented rejection
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": fromJson threw " << e.what();
        return false;
    }
    try {
        const std::string encoded = spec.toJson().dump();
        const JobSpec back =
            JobSpec::fromJson(json::Value::parse(encoded));
        EXPECT_EQ(back.toJson().dump(), encoded) << what;
        EXPECT_EQ(back.resultKey(), spec.resultKey()) << what;
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": accepted spec does not round-trip: "
                      << e.what();
    }
    return true;
}

TEST(ProtocolMutation, JobSpecSurvivesEveryFlipAndTruncation)
{
    for (const JobSpec &clean : {mixSpec(), curveSpec()}) {
        std::size_t accepted = 0;
        forEachMutation(
            clean.toJson().dump(),
            [&](const std::string &mutant, const std::string &what) {
                const auto obj = json::Value::tryParse(mutant);
                if (obj && expectSpecRoundTrips(*obj, what))
                    ++accepted;
            });
        // Flips inside the label, tenant or seed digits still make
        // valid specs: the sweep reached the accepting path.
        EXPECT_GT(accepted, 0u) << clean.toJson().dump();
    }
}

TEST(ProtocolMutation, DaemonAnswersEveryMutatedRequestLine)
{
    const std::string state =
        (std::filesystem::temp_directory_path() /
         ("nuca_protocol_mutation_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(state);
    DaemonOptions opts;
    opts.socketPath.clear(); // handle() directly, no socket
    opts.stateDir = state;
    opts.workers = 1;
    opts.isolation.enabled = false;
    {
        // Never started: accepted submits stay queued, none runs.
        SweepDaemon daemon(opts);
        json::Value submit = json::Value::object();
        submit.set("op", "submit");
        submit.set("spec", mixSpec().toJson());
        const json::Value first = daemon.handle(submit);
        ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
        const std::string id = json::Value(first.at("id")).dump();

        std::vector<std::string> lines = {submit.dump()};
        for (const char *op : {"status", "result", "preempt", "cancel"})
            lines.push_back(std::string("{\"op\":\"") + op +
                            "\",\"id\":" + id + "}");
        lines.push_back("{\"op\":\"ping\"}");

        for (const std::string &clean : lines) {
            forEachMutation(clean, [&](const std::string &mutant,
                                       const std::string &what) {
                // What the socket loop does with one line.
                const auto request = json::Value::tryParse(mutant);
                if (!request)
                    return;
                json::Value reply;
                try {
                    reply = daemon.handle(*request);
                } catch (const std::exception &e) {
                    ADD_FAILURE() << what << " of " << clean
                                  << ": handle threw " << e.what();
                    return;
                }
                ASSERT_EQ(reply.type(), json::Value::Type::Object)
                    << what;
                ASSERT_TRUE(reply.contains("ok")) << what;
                EXPECT_EQ(reply.at("ok").type(),
                          json::Value::Type::Bool)
                    << what;
                EXPECT_NO_THROW(reply.dump()) << what;
                if (reply.at("ok").asBool() &&
                    request->contains("spec")) {
                    EXPECT_TRUE(expectSpecRoundTrips(
                        request->at("spec"), what));
                }
            });
        }
    }
    std::filesystem::remove_all(state);
}

} // namespace
