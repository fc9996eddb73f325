#include "sim/telemetry.hh"

#include <cctype>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "sim/cmp_system.hh"

namespace nuca {

JsonlTraceSink::JsonlTraceSink(std::string path,
                               std::size_t buffer_bytes)
    : path_(std::move(path)), bufferBytes_(buffer_bytes)
{
    file_ = std::fopen(path_.c_str(), "w");
    fatal_if(file_ == nullptr, "telemetry: cannot open '", path_,
             "' for writing");
    buffer_.reserve(bufferBytes_);
}

JsonlTraceSink::~JsonlTraceSink()
{
    flush();
    std::fclose(file_);
}

void
JsonlTraceSink::write(const json::Value &record)
{
    if (failed_)
        return;
    buffer_ += record.dump();
    buffer_ += '\n';
    ++records_;
    // A full buffer is handed to stdio in one batched fwrite; only
    // an explicit flush() forces the bytes down to the OS, so the
    // steady-state cost per buffer is exactly one write call.
    if (buffer_.size() >= bufferBytes_)
        drain(false);
}

void
JsonlTraceSink::flush()
{
    drain(true);
}

void
JsonlTraceSink::drain(bool sync)
{
    if (failed_ || (buffer_.empty() && !sync))
        return;
    prof::Scope profFlush(prof::Phase::TelemetryFlush);
    prof::add(prof::Counter::TraceFlushes, 1);
    std::size_t written = buffer_.size();
    if (!buffer_.empty()) {
        written = std::fwrite(buffer_.data(), 1, buffer_.size(),
                              file_);
    }
    if (written != buffer_.size() ||
        (sync && std::fflush(file_) != 0)) {
        // Losing telemetry must not kill the simulation that produces
        // it; warn once and drop the remainder of this trace.
        failed_ = true;
        warn("telemetry: write to '", path_,
             "' failed; dropping the rest of this trace");
    }
    buffer_.clear();
}

std::string
TelemetryConfig::problem() const
{
    if (samplePeriod == 0)
        return "the trace sample period (REPRO_TRACE_PERIOD) must be "
               "positive";
    return "";
}

std::string
sanitizeLabel(const std::string &label)
{
    std::string safe;
    safe.reserve(label.size());
    for (const char c : label) {
        const auto u = static_cast<unsigned char>(c);
        if (std::isalnum(u) || c == '.' || c == '-' || c == '_') {
            safe += c;
        } else if (safe.empty() || safe.back() != '_') {
            // Slashes, whitespace and other shell/filesystem
            // metacharacters collapse runs-of-unsafe into one '_'.
            safe += '_';
        }
    }
    bool anySafe = false;
    for (const char c : safe)
        anySafe |= c != '_';
    return anySafe ? safe : "trace";
}

std::string
tracePathFor(const std::string &base, const std::string &label)
{
    if (label.empty())
        return base;

    const std::string safe = sanitizeLabel(label);

    // Insert the label before the filename's extension so the files
    // keep sorting (and opening) as traces of the base name.
    const std::size_t slash = base.find_last_of('/');
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        return base.substr(0, dot) + "." + safe + base.substr(dot);
    }
    return base + "." + safe;
}

std::unique_ptr<TraceSink>
attachTelemetry(CmpSystem &system, const TelemetryConfig &config,
                const std::string &label)
{
    std::unique_ptr<TraceSink> sink;
    if (config.enabled()) {
        sink = std::make_unique<JsonlTraceSink>(
            tracePathFor(config.tracePath, label));
        system.attachTelemetry(sink.get(), config.samplePeriod);
        // Heatmap records ride the sample cadence, so without a sink
        // there is nowhere for them to go and counting would be
        // wasted work.
        if (config.heatmap)
            system.enableHeatmap();
    }
    return sink;
}

} // namespace nuca
