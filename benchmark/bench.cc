#include "bench.hh"

#include <algorithm>
#include <cstdio>

namespace nbench {

using nuca::json::Value;

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= values.size())
        return values.back();
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

Value
samplesJson(const std::vector<double> &values)
{
    Value out = Value::array();
    for (const double v : values)
        out.append(v);
    return out;
}

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.set(name, Value::object().set("value", value).set("unit",
                                                                 unit));
}

void
Report::attempt(const std::string &error)
{
    ++attempted_;
    if (error.empty())
        return;
    ++failed_;
    std::fprintf(stderr, "nuca_bench: FAILED: %s\n", error.c_str());
    errors_.push_back(error);
}

void
Report::detail(const std::string &key, Value value)
{
    details_.set(key, std::move(value));
}

Value
Report::toJson() const
{
    Value errors = Value::array();
    for (const auto &e : errors_)
        errors.append(e);
    Value doc = Value::object();
    doc.set("correct", correct());
    doc.set("attempted", attempted_);
    doc.set("failed", failed_);
    doc.set("errors", std::move(errors));
    doc.set("metrics", metrics_);
    doc.set("details", details_);
    return doc;
}

Tracer::Tracer()
{
    log_.configure(std::string());
}

Tracer::Span::Span(Tracer &tracer, std::string name) : tracer_(tracer)
{
    const double now = tracer_.log_.nowUs();
    tracer_.log_.begin(nuca::TraceEventLog::kHostPid, 0, name, now);
    tracer_.open_.push_back({std::move(name), now, 0.0});
}

Tracer::Span::~Span()
{
    const Open span = tracer_.open_.back();
    tracer_.open_.pop_back();
    const double now = tracer_.log_.nowUs();
    tracer_.log_.end(nuca::TraceEventLog::kHostPid, 0, span.name, now);
    const double dur = now - span.startUs;
    Total &total = tracer_.totals_[span.name];
    ++total.count;
    total.totalUs += dur;
    total.selfUs += dur - span.childUs;
    if (!tracer_.open_.empty())
        tracer_.open_.back().childUs += dur;
}

void
Tracer::complete(const std::string &name, double start_us,
                 double dur_us)
{
    const int tid =
        log_.newThread(nuca::TraceEventLog::kHostPid, name);
    log_.complete(nuca::TraceEventLog::kHostPid, tid, name, start_us,
                  dur_us);
}

Value
Tracer::selfTimes() const
{
    Value out = Value::object();
    for (const auto &[name, total] : totals_) {
        out.set(name, Value::object()
                          .set("count", total.count)
                          .set("total_ms", total.totalUs / 1000.0)
                          .set("self_ms", total.selfUs / 1000.0));
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    return log_.writeTo(path);
}

} // namespace nbench
