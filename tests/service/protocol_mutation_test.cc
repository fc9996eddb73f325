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

/** A spec carrying overrides: numbers, a bool and an enum name. */
JobSpec
overridesSpec()
{
    JobSpec spec = mixSpec();
    spec.scheme = "shared";
    spec.overrides = json::Value::parse(
        "{\"core_mem.enable_prefetcher\":true,\"epoch_misses\":250,"
        "\"l3_repl_policy\":\"nru\"}");
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
    for (const JobSpec &clean :
         {mixSpec(), overridesSpec(), curveSpec()}) {
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

TEST(ProtocolMutation, MalformedOverridesGetSpecErrors)
{
    const std::string state =
        (std::filesystem::temp_directory_path() /
         ("nuca_protocol_overrides_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(state);
    DaemonOptions opts;
    opts.socketPath.clear();
    opts.stateDir = state;
    opts.workers = 1;
    opts.isolation.enabled = false;
    {
        SweepDaemon daemon(opts);
        const auto submit = [&](const std::string &scheme,
                                const std::string &overrides,
                                unsigned cores) {
            json::Value spec = mixSpec().toJson();
            spec.set("scheme", scheme);
            json::Value apps = json::Value::array();
            for (unsigned c = 0; c < cores; ++c)
                apps.append("gzip");
            spec.set("apps", std::move(apps));
            const auto parsed = json::Value::tryParse(overrides);
            spec.set("overrides", parsed ? *parsed : json::Value());
            json::Value request = json::Value::object();
            request.set("op", "submit");
            request.set("spec", std::move(spec));
            return daemon.handle(request);
        };
        // One case per line: the codec's type and range errors, then
        // values that stop CmpSystem construction (fatal, or a crash
        // before its own check runs).
        const struct
        {
            const char *scheme;
            const char *overrides;
            unsigned cores;
        } cases[] = {
            {"adaptive", "{\"no_such_field\": 1}", 4},
            {"adaptive", "{\"epoch_misses\": \"250\"}", 4},
            {"adaptive", "{\"epoch_misses\": -1}", 4},
            {"adaptive", "{\"scheme_seed\": 18446744073709551616}", 4},
            {"adaptive", "{\"adaptation_enabled\": \"no\"}", 4},
            {"adaptive", "{\"scheme\": \"private\"}", 4},
            {"adaptive", "[1, 2]", 4},
            {"private", "{\"num_cores\": 0}", 0},
            {"adaptive", "{\"num_cores\": 1}", 1},
            {"random", "{\"num_cores\": 1}", 1},
            {"adaptive", "{\"num_cores\": 33}", 33},
            {"adaptive", "{\"l3_local_assoc\": 0}", 4},
            {"adaptive", "{\"l3_local_assoc\": 3}", 4},
            {"adaptive", "{\"epoch_misses\": 0}", 4},
            {"adaptive", "{\"shadow_sample_shift\": 13}", 4},
            {"private", "{\"l3_local_latency\": 0}", 4},
            {"shared", "{\"mem_first_chunk_shared\": 0}", 4},
            {"private", "{\"core_mem.l1d.size_bytes\": 1000}", 4},
            {"private", "{\"core_mem.l2d.mshrs\": 0}", 4},
            {"private", "{\"core_mem.tlb_entries\": 0}", 4},
            {"private", "{\"core.ruu_size\": 0}", 4},
            {"private", "{\"core.predictor.history_bits\": 17}", 4},
            {"private", "{\"core.predictor.btb_assoc\": 3}", 4},
            {"private", "{\"core.func_units.int_alus\": 0}", 4},
        };
        for (const auto &c : cases) {
            const json::Value reply = submit(c.scheme, c.overrides, c.cores);
            EXPECT_FALSE(reply.at("ok").asBool())
                << c.scheme << " " << c.overrides;
            EXPECT_FALSE(reply.at("error").asString().empty())
                << c.overrides;
        }
        // Still serving: a valid override is accepted.
        const json::Value ok =
            submit("adaptive", "{\"epoch_misses\": 250}", 4);
        EXPECT_TRUE(ok.at("ok").asBool()) << ok.dump();
        json::Value ping = json::Value::object();
        ping.set("op", "ping");
        EXPECT_TRUE(daemon.handle(ping).at("ok").asBool());
    }
    std::filesystem::remove_all(state);
}

} // namespace
