#include "service/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <system_error>

#include "service/job_spec.hh"
#include "sim/checkpoint.hh"
#include "sim/json_writer.hh"
#include "sim/sweep_store.hh"

namespace nuca {
namespace service {

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::pathFor(std::uint64_t key) const
{
    return dir_ + "/" + hex16(key) + ".result.json";
}

namespace {

/** The whole file at @p path; nullopt when it cannot be opened. */
std::optional<std::string>
readEntry(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return std::nullopt;
    // An entry is about a kilobyte: one fread takes all of it.
    std::string text;
    char buf[1 << 14];
    std::size_t n;
    do {
        n = std::fread(buf, 1, sizeof(buf), f);
        text.append(buf, n);
    } while (n == sizeof(buf));
    std::fclose(f);
    return text;
}

/**
 * The result of an entry whose "key" member is @p hex, read in one
 * pass with json::Value::tryParse's rules: nullopt for a document
 * that does not parse, is not an object, lacks "key" or "result",
 * has another key, or whose result mixResultFromJson refuses. The
 * "spec" member is checked for syntax only: the key is the entry's
 * identity.
 */
std::optional<MixResult>
decodeEntry(std::string_view text, const std::string &hex)
{
    json::Cursor in(text);
    in.skipWs();
    if (!in.canEnter(0) || in.peek() != '{')
        return std::nullopt;
    std::optional<std::string> key;
    bool hasResult = false;
    std::optional<MixResult> result;
    const bool parsed =
        in.object(0, [&](const std::string &member, unsigned depth) {
            if (member == "key")
                return in.maybeString(key, depth);
            if (member == "result") {
                hasResult = true;
                return readMixResult(in, depth, result);
            }
            return in.skip(depth);
        }) &&
        in.atDocumentEnd();
    if (!parsed || !hasResult || key != hex)
        return std::nullopt;
    return result;
}

} // namespace

std::optional<MixResult>
ResultCache::get(std::uint64_t key) const
{
    if (!enabled())
        return std::nullopt;
    const std::string path = pathFor(key);
    const std::optional<std::string> text = readEntry(path);
    if (!text)
        return std::nullopt; // silent miss

    // A torn file and a mistyped payload are both corrupt.
    std::optional<MixResult> result = decodeEntry(*text, hex16(key));
    if (!result) {
        std::fprintf(stderr,
                     "warning: result cache entry %s is corrupt or "
                     "mismatched; dropping it\n",
                     path.c_str());
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    return result;
}

void
ResultCache::put(std::uint64_t key, const JobSpec &spec,
                 const MixResult &result) const
{
    if (!enabled())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        std::fprintf(stderr,
                     "warning: cannot create result cache dir %s: "
                     "%s\n",
                     dir_.c_str(), ec.message().c_str());
        return;
    }
    std::string text;
    json::Writer doc(text, 2);
    doc.beginObject();
    doc.key("key");
    doc.string(hex16(key));
    doc.key("spec");
    doc.value(spec.toJson());
    doc.key("result");
    doc.beginObject();
    writeMixResultMembers(doc, result);
    doc.endObject();
    doc.endObject();
    text += '\n';
    const std::string error = json::tryWriteTextAtomic(pathFor(key), text);
    if (!error.empty()) {
        std::fprintf(stderr,
                     "warning: result cache entry not stored: %s\n",
                     error.c_str());
    }
}

std::size_t
ResultCache::count() const
{
    if (!enabled())
        return 0;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec)
        return 0;
    std::size_t n = 0;
    for (const auto &entry : it) {
        if (entry.is_regular_file(ec) &&
            entry.path().filename().string().ends_with(
                ".result.json"))
            ++n;
    }
    return n;
}

} // namespace service
} // namespace nuca
