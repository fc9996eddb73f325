/** @file Tests for the minimal JSON document model. */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "sim/json_writer.hh"
#include "support/mutation.hh"

namespace nuca {
namespace {

using json::Value;

TEST(JsonWriter, ScalarsDump)
{
    EXPECT_EQ(Value().dump(), "null");
    EXPECT_EQ(Value(true).dump(), "true");
    EXPECT_EQ(Value(false).dump(), "false");
    EXPECT_EQ(Value(42).dump(), "42");
    EXPECT_EQ(Value(1.5).dump(), "1.5");
    EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(JsonWriter, StringsAreEscaped)
{
    EXPECT_EQ(Value("a\"b\\c").dump(), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(Value("line\nbreak\ttab").dump(),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(Value(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonWriter, ObjectsPreserveInsertionOrder)
{
    Value obj = Value::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("zebra", 3); // replace, keep position
    EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"apple\":2}");
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_TRUE(obj.contains("apple"));
    EXPECT_FALSE(obj.contains("mango"));
}

TEST(JsonWriter, ArraysNest)
{
    Value arr = Value::array();
    arr.append(1).append("two");
    Value inner = Value::array();
    inner.append(3.5);
    arr.append(std::move(inner));
    EXPECT_EQ(arr.dump(), "[1,\"two\",[3.5]]");
    EXPECT_EQ(arr.at(2).at(0).asNumber(), 3.5);
}

TEST(JsonWriter, PrettyPrintIndents)
{
    Value obj = Value::object();
    obj.set("a", 1);
    EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, StreamingWriterLaysOutLikeDump)
{
    // Written member by member, and as a tree, the same document
    // lays out the same at every indent; empty containers stay "[]"
    // and "{}" on their line.
    Value doc = Value::object();
    doc.set("empty", Value::array());
    doc.set("none", Value::object());
    Value arr = Value::array();
    arr.append(1).append(Value::object()).append("s\n");
    Value inner = Value::object();
    inner.set("k", Value());
    inner.set("b", true);
    arr.append(std::move(inner));
    doc.set("arr", std::move(arr));

    const std::string compact =
        R"({"empty":[],"none":{},"arr":[1,{},"s\n",{"k":null,"b":true}]})";
    const std::string pretty = R"({
  "empty": [],
  "none": {},
  "arr": [
    1,
    {},
    "s\n",
    {
      "k": null,
      "b": true
    }
  ]
})";
    for (const unsigned indent : {0u, 2u}) {
        std::string text;
        json::Writer out(text, indent);
        out.beginObject();
        out.key("empty");
        out.beginArray();
        out.endArray();
        out.key("none");
        out.beginObject();
        out.endObject();
        out.key("arr");
        out.beginArray();
        out.number(1);
        out.beginObject();
        out.endObject();
        out.string("s\n");
        out.beginObject();
        out.key("k");
        out.null();
        out.key("b");
        out.boolean(true);
        out.endObject();
        out.endArray();
        out.endObject();
        const std::string &expected = indent == 0 ? compact : pretty;
        EXPECT_EQ(text, expected);
        EXPECT_EQ(doc.dump(indent), expected);
    }

    // Spliced compact text lands where a written value would.
    std::string text;
    json::Writer out(text);
    out.beginObject();
    out.key("a");
    out.number(1);
    out.rawMembers("\"b\":[2],\"c\":{}");
    out.rawMembers("");
    out.key("d");
    out.raw("[3,4]");
    out.endObject();
    EXPECT_EQ(text, R"({"a":1,"b":[2],"c":{},"d":[3,4]})");
}

TEST(JsonWriter, ParseRoundTripsDump)
{
    Value doc = Value::object();
    doc.set("label", "adaptive");
    Value mix = Value::array();
    mix.append("mcf").append("gzip").append("ammp").append("art");
    doc.set("mix", std::move(mix));
    Value ipc = Value::array();
    ipc.append(0.123456789012345).append(1.75);
    doc.set("ipc", std::move(ipc));
    doc.set("harmonic", 0.3333333333333333);
    doc.set("quote", "say \"hi\"\n");

    for (const unsigned indent : {0u, 2u}) {
        const auto parsed = Value::tryParse(doc.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
        EXPECT_EQ(parsed->at("label").asString(), "adaptive");
        EXPECT_EQ(parsed->at("mix").size(), 4u);
        EXPECT_EQ(parsed->at("mix").at(0).asString(), "mcf");
        // %.17g serialization round-trips doubles exactly.
        EXPECT_EQ(parsed->at("ipc").at(0).asNumber(),
                  0.123456789012345);
        EXPECT_EQ(parsed->at("harmonic").asNumber(),
                  0.3333333333333333);
        EXPECT_EQ(parsed->at("quote").asString(), "say \"hi\"\n");
    }
}

TEST(JsonWriter, ParseHandlesLiteralsAndNumbers)
{
    const auto v =
        Value::tryParse(" [ null , true , false , -2.5e3 ] ");
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->at(0).isNull());
    EXPECT_TRUE(v->at(1).asBool());
    EXPECT_FALSE(v->at(2).asBool());
    EXPECT_EQ(v->at(3).asNumber(), -2500.0);
}

TEST(JsonWriter, ParseRejectsMalformedInput)
{
    EXPECT_FALSE(Value::tryParse("").has_value());
    EXPECT_FALSE(Value::tryParse("{").has_value());
    EXPECT_FALSE(Value::tryParse("[1,]").has_value());
    EXPECT_FALSE(Value::tryParse("{\"a\":}").has_value());
    EXPECT_FALSE(Value::tryParse("\"unterminated").has_value());
    EXPECT_FALSE(Value::tryParse("123 trailing").has_value());
    EXPECT_FALSE(Value::tryParse("nul").has_value());
    EXPECT_FALSE(Value::tryParse("+1").has_value());
}

TEST(JsonWriter, ParseRejectsOverflowingNumbers)
{
    // Inf and NaN have no JSON spelling, so a literal that overflows
    // a double is malformed rather than a value dump() cannot write.
    EXPECT_FALSE(Value::tryParse("1e999").has_value());
    EXPECT_FALSE(Value::tryParse("[-1e400]").has_value());
    EXPECT_TRUE(Value::tryParse("1e300").has_value());
    // An underflow is a zero, which dump() can write.
    const auto tiny = Value::tryParse("[1e-400]");
    ASSERT_TRUE(tiny.has_value());
    EXPECT_EQ(tiny->at(0).asNumber(), 0.0);
}

TEST(JsonWriter, ParseUnescapesUnicodeEscapes)
{
    const auto v = Value::tryParse("\"\\u0041\\u0001\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asString(), std::string("A") + '\x01');
}

TEST(JsonWriter, FileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "json_writer_test.json";
    Value doc = Value::object();
    doc.set("answer", 42);
    json::writeFileAtomic(path, doc);
    const auto parsed = Value::parse(json::readFile(path));
    EXPECT_EQ(parsed.at("answer").asNumber(), 42.0);
    std::remove(path.c_str());
}

TEST(JsonMutation, TryParseSurvivesEveryFlipAndTruncation)
{
    // Every value type, every escape the writer emits and a few it
    // only reads, nesting on both sides, and numbers at the edges of
    // a double: largest, smallest normal and subnormal, 2^64 - 1, a
    // negative zero and an integer a double cannot hold exactly.
    const std::string clean =
        R"({"null": null, "t": true, "f": false, )"
        R"("n": [0, -0, 1.7976931348623157e308, -1.7976931348623157e308, )"
        R"(2.2250738585072014e-308, 5e-324, 18446744073709551615, )"
        R"(-9007199254740993, 1e-7, 123456789.125], )"
        R"("s": "q\"b\\s\/b\bf\fn\nr\rt\tu\u00e9\u0001", )"
        R"("nest": {"a": [[], {}, [[1, {"k": "v"}]], ""], )"
        R"("o": {"deep": {"deeper": [true, null]}}}, "": "empty key"})";
    ASSERT_TRUE(Value::tryParse(clean).has_value());

    std::size_t accepted = 0;
    forEachMutation(clean, [&](const std::string &mutant,
                               const std::string &what) {
        std::optional<Value> doc;
        ASSERT_NO_THROW(doc = Value::tryParse(mutant)) << what;
        // The cursor's skip, which one-pass decoders use to pass over
        // members they do not keep, accepts exactly the same texts.
        json::Cursor in(mutant);
        in.skipWs();
        EXPECT_EQ(in.skip(0) && in.atDocumentEnd(), doc.has_value())
            << what;
        if (!doc)
            return;
        ++accepted;
        // Whatever is accepted is a document the writer can emit and
        // read back to the same bytes, compact and pretty-printed.
        for (const unsigned indent : {0u, 2u}) {
            const std::string text = doc->dump(indent);
            const auto again = Value::tryParse(text);
            ASSERT_TRUE(again.has_value()) << what << ": " << text;
            EXPECT_EQ(again->dump(indent), text) << what;
        }
    });
    EXPECT_GT(accepted, 0u);
}

} // namespace
} // namespace nuca
