/**
 * @file
 * The one-pass result payload codec (encodeMixResult, decodeMixResult,
 * MixResultReader) against its json::Value reference
 * (mixResultToJson, mixResultFromJson): the same bytes out, and the
 * same documents accepted with bit-identical results.
 */

#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/json_writer.hh"
#include "sim/sweep_store.hh"
#include "support/mutation.hh"

namespace nuca {
namespace {

/** Every double of every field equal bit for bit. */
bool
sameBits(const MixResult &a, const MixResult &b)
{
    const auto same = [](const std::vector<double> &x,
                         const std::vector<double> &y) {
        return x.size() == y.size() &&
               (x.empty() ||
                std::memcmp(x.data(), y.data(),
                            x.size() * sizeof(double)) == 0);
    };
    return same(a.ipc, b.ipc) &&
           same(a.l3AccessesPerKilocycle, b.l3AccessesPerKilocycle) &&
           same(a.l1dMissRatio, b.l1dMissRatio) &&
           same(a.l2dMissRatio, b.l2dMissRatio) &&
           same(a.l3MissRatio, b.l3MissRatio) &&
           same(a.mispredictRate, b.mispredictRate) &&
           same(a.curve, b.curve);
}

/** The reference decode: mixResultFromJson over the parsed tree. */
std::optional<MixResult>
treeDecode(const std::string &text)
{
    const auto doc = json::Value::tryParse(text);
    if (!doc)
        return std::nullopt;
    try {
        return mixResultFromJson(*doc);
    } catch (const SimulationError &) {
        return std::nullopt;
    }
}

/** decodeMixResult agrees with treeDecode on @p text. */
void
expectSameDecode(const std::string &text, const std::string &what)
{
    const std::optional<MixResult> tree = treeDecode(text);
    const std::optional<MixResult> fast = decodeMixResult(text);
    ASSERT_EQ(fast.has_value(), tree.has_value()) << what << ": " << text;
    if (tree) {
        EXPECT_TRUE(sameBits(*fast, *tree)) << what << ": " << text;
    }
}

/** A finite double from raw bits: any sign, exponent and digits. */
double
anyFinite(std::mt19937_64 &rng)
{
    for (;;) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            return v;
    }
}

MixResult
randomPayload(std::mt19937_64 &rng, std::size_t cores, bool curve)
{
    MixResult r;
    for (std::vector<double> *field :
         {&r.ipc, &r.l3AccessesPerKilocycle, &r.l1dMissRatio,
          &r.l2dMissRatio, &r.l3MissRatio, &r.mispredictRate}) {
        for (std::size_t i = 0; i < cores; ++i) {
            // Half raw bit patterns, half the integers and short
            // fractions the writer prints without an exponent.
            field->push_back(rng() % 2 ? anyFinite(rng)
                                       : double(rng() % 100000) / 8);
        }
    }
    if (curve) {
        for (int i = 0; i < 16; ++i)
            r.curve.push_back(double(rng() % (1u << 20)));
    }
    return r;
}

const MixResult &
fourCore()
{
    static const MixResult r = [] {
        MixResult m;
        m.ipc = {0.1 + 0.2, 1.0 / 3.0, 0.9999999999999999, 2.0};
        m.l3AccessesPerKilocycle = {12.000000000000002, 0.0, 7.5, 1e-9};
        m.l1dMissRatio = {0.1, 0.7, 1.0 / 7.0, 0.0};
        m.l2dMissRatio = {0.5, 0.1 + 0.7, 1.0, 0.25};
        m.l3MissRatio = {0.0, 0.9, 0.3333333333333333, 1e-12};
        m.mispredictRate = {0.05, 0.01, 0.125, 2.0 / 3.0};
        return m;
    }();
    return r;
}

TEST(PayloadCodec, EncodeWritesTheTreeBytes)
{
    std::mt19937_64 rng(20070201);
    for (int i = 0; i < 200; ++i) {
        const MixResult r =
            randomPayload(rng, i % 9, /*curve=*/i % 3 == 0);
        const std::string text = encodeMixResult(r);
        ASSERT_EQ(text, mixResultToJson(r).dump());
        // ...and at any indent, through the streaming writer.
        std::string pretty;
        json::Writer out(pretty, 2);
        out.beginObject();
        writeMixResultMembers(out, r);
        out.endObject();
        ASSERT_EQ(pretty, mixResultToJson(r).dump(2));

        const std::optional<MixResult> back = decodeMixResult(text);
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_TRUE(sameBits(*back, r)) << text;
    }
    EXPECT_EQ(encodeMixResult({}), "{\"ipc\":[],\"l3apk\":[]}");
}

TEST(PayloadCodec, DecodeFollowsTheTreeOnEdgeCases)
{
    // Repeated members (the last counts), unknown members of every
    // type, mistyped fields that a later repeat repairs or that an
    // IPC-less result never reads, whitespace, and refusals.
    for (const std::string &text : {
             std::string(R"({"ipc":["x"],"ipc":[],"l3apk":[1]})"),
             std::string(R"({"ipc":[],"ipc":["x"]})"),
             std::string(R"({"ipc":[],"l1d_miss":"x","l2d_miss":[[1]]})"),
             std::string(R"({"ipc":[1],"l3apk":[2],"l1d_miss":[3],)"
                         R"("l2d_miss":[4],"l3_miss":[5],)"
                         R"("mispredict":[6],"l1d_miss":[7,8]})"),
             std::string(R"({"ipc":[1],"l3apk":[2],"l1d_miss":[3],)"
                         R"("l2d_miss":[4],"l3_miss":[5],)"
                         R"("mispredict":[6],"mispredict":null,)"
                         R"("mispredict":[9]})"),
             std::string(R"({"ipc":[1],"l3apk":[2],"l1d_miss":[3],)"
                         R"("l2d_miss":[4],"l3_miss":[5]})"),
             std::string(R"({"x":{"y":[true,false,null,"sA"]},)"
                         R"("curve":[1e-400,-0,5e-324]})"),
             std::string(R"({"curve":[1e999]})"),
             std::string(R"({"curve":[+1]})"),
             std::string(R"({"curve":[1,]})"),
             std::string(R"({"ipc":[1],"l3apk":[]})"),
             std::string(" \t\r\n{ \"ipc\" : [ ] , \"l3apk\" :[]}\n "),
             std::string(R"({"ipc":[]} x)"),
             std::string(R"([{"ipc":[]}])"),
             std::string(R"("ipc")"),
             std::string("{}"),
             std::string(""),
         })
        expectSameDecode(text, "edge case");

    // Nesting right at and just past the parser's depth limit, in an
    // unknown member and inside a payload field.
    for (const unsigned depth : {62u, 63u, 64u, 65u}) {
        const std::string deep = std::string(depth, '[') + "1" +
                                 std::string(depth, ']');
        expectSameDecode("{\"x\":" + deep + "}",
                         "depth " + std::to_string(depth));
        expectSameDecode("{\"curve\":[" + deep + "]}",
                         "depth " + std::to_string(depth));
    }
}

TEST(PayloadCodecMutation, ReaderAcceptsExactlyWhatTheTreeAccepts)
{
    MixResult curve;
    curve.curve = {1048576.0, 524288.5, 0.1, 0.0};
    SweepRecord record;
    record.label = "job3:mix:adaptive.baseline mcf+gzip+ammp+art#7";
    record.key = 0x0123456789abcdefULL;
    record.status = JobStatus::CacheHit;
    record.result = fourCore();
    record.timed = true;
    record.queueMs = 5;

    // A journal line, as SweepStore::append writes it.
    std::string journal;
    {
        json::Value line = json::Value::object();
        line.set("label", record.label);
        line.set("key", hex16(*record.key));
        line.set("status", to_string(record.status));
        const json::Value payload = mixResultToJson(record.result);
        for (const auto &[name, value] : payload.members())
            line.set(name, value);
        line.set("queue_ms", record.queueMs);
        line.set("preempts", record.preempts);
        journal = line.dump();
    }
    for (const std::string &clean :
         {encodeMixResult(fourCore()), encodeMixResult(curve), journal}) {
        SCOPED_TRACE(clean);
        forEachMutation(clean, [&](const std::string &mutant,
                                   const std::string &what) {
            expectSameDecode(mutant, what);
        });
    }
}

} // namespace
} // namespace nuca
