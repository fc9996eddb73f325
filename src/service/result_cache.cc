#include "service/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
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

std::optional<MixResult>
ResultCache::get(std::uint64_t key) const
{
    if (!enabled())
        return std::nullopt;
    const std::string path = pathFor(key);

    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return std::nullopt; // silent miss

    std::ostringstream text;
    text << in.rdbuf();
    const auto doc = json::Value::tryParse(text.str());

    const bool shaped = doc &&
                        doc->type() == json::Value::Type::Object &&
                        doc->contains("key") &&
                        doc->at("key").type() ==
                            json::Value::Type::String &&
                        doc->contains("result");
    std::optional<MixResult> result;
    if (shaped && doc->at("key").asString() == hex16(key)) {
        try {
            result = mixResultFromJson(doc->at("result"));
        } catch (const SimulationError &) {
            // a mistyped payload is as corrupt as a torn one
        }
    }
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
    json::Value doc = json::Value::object();
    doc.set("key", hex16(key));
    doc.set("spec", spec.toJson());
    doc.set("result", mixResultToJson(result));
    json::writeFileAtomic(pathFor(key), doc);
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
