#include "base/stats.hh"

#include <algorithm>
#include <cstdio>

#include "serialize/serializer.hh"

namespace nuca {
namespace stats {

namespace {

/**
 * Doubles in dumps are formatted through snprintf rather than stream
 * manipulators: std::setprecision is sticky and would leak into the
 * caller's stream, and the default precision differs enough across
 * libstdc++ versions to make dump diffs unstable. %.6g matches the
 * precision the dumps always intended.
 */
std::string
formatDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

Stat::Stat(Group &parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    parent.stats_.push_back(this);
}

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value_ << " # " << desc() << "\n";
}

void
Scalar::visit(Visitor &v, const std::string &prefix) const
{
    v.record(prefix + name(), static_cast<double>(value_));
}

std::uint64_t
Vector::total() const
{
    std::uint64_t t = 0;
    for (auto v : values_)
        t += v;
    return t;
}

void
Vector::dump(std::ostream &os, const std::string &prefix) const
{
    // A zero-length vector has nothing to report; emitting only the
    // ".total 0" line would be a dangling aggregate of no elements.
    if (values_.empty())
        return;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        os << prefix << name() << "[" << i << "] " << values_[i]
           << " # " << desc() << "\n";
    }
    os << prefix << name() << ".total " << total() << " # " << desc()
       << "\n";
}

void
Vector::visit(Visitor &v, const std::string &prefix) const
{
    if (values_.empty())
        return;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        v.record(prefix + name() + "[" + std::to_string(i) + "]",
                 static_cast<double>(values_[i]));
    }
    v.record(prefix + name() + ".total",
             static_cast<double>(total()));
}

void
Vector::reset()
{
    std::fill(values_.begin(), values_.end(), 0);
}

Distribution::Distribution(Group &parent, std::string name,
                           std::string desc, std::uint64_t min,
                           std::uint64_t max, std::uint64_t bucketSize)
    : Stat(parent, std::move(name), std::move(desc)),
      min_(min), max_(max), bucketSize_(bucketSize)
{
    panic_if(max_ <= min_, "Distribution with max <= min");
    panic_if(bucketSize_ == 0, "Distribution with zero bucket size");
    counts_.assign((max_ - min_ + bucketSize_ - 1) / bucketSize_, 0);

    // Prove the division-free bucket index exact for this domain:
    // the multiply-shift is monotone in the dividend, so checking
    // both edges of every bucket pins all interior values.
    const std::uint64_t recip =
        ((std::uint64_t{1} << 32) + bucketSize_ - 1) / bucketSize_;
    bool exact = max_ - min_ <= (std::uint64_t{1} << 31);
    for (std::size_t b = 0; exact && b < counts_.size(); ++b) {
        const std::uint64_t lo = b * bucketSize_;
        const std::uint64_t hi =
            std::min(lo + bucketSize_ - 1, max_ - min_ - 1);
        exact = ((lo * recip) >> 32) == b && ((hi * recip) >> 32) == b;
    }
    bucketRecip_ = exact ? recip : 0;
}

void
Distribution::sample(std::uint64_t v)
{
    if (count_ == 0) {
        minSeen_ = maxSeen_ = v;
    } else {
        minSeen_ = std::min(minSeen_, v);
        maxSeen_ = std::max(maxSeen_, v);
    }
    ++count_;
    sum_ += v;

    if (v < min_) {
        ++underflow_;
    } else if (v >= max_) {
        ++overflow_;
    } else {
        ++counts_[bucketIndex(v)];
    }
}

void
Distribution::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (count_ == 0) {
        minSeen_ = maxSeen_ = v;
    } else {
        minSeen_ = std::min(minSeen_, v);
        maxSeen_ = std::max(maxSeen_, v);
    }
    count_ += count;
    sum_ += static_cast<unsigned __int128>(v) * count;

    if (v < min_) {
        underflow_ += count;
    } else if (v >= max_) {
        overflow_ += count;
    } else {
        counts_[bucketIndex(v)] += count;
    }
}

double
Distribution::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

std::uint64_t
Distribution::bucketCount(std::size_t i) const
{
    panic_if(i >= counts_.size(), "Distribution bucket out of range");
    return counts_[i];
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << ".count " << count_ << " # " << desc()
       << "\n";
    os << prefix << name() << ".mean " << formatDouble(mean())
       << " # " << desc() << "\n";
    // min/max are only meaningful once something was sampled; with
    // count == 0 they would print as a spurious [0, 0] range.
    if (count_ > 0) {
        os << prefix << name() << ".min " << minSeen_ << " # "
           << desc() << "\n";
        os << prefix << name() << ".max " << maxSeen_ << " # "
           << desc() << "\n";
    }
    if (underflow_ > 0)
        os << prefix << name() << ".underflow " << underflow_ << "\n";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const auto lo = min_ + i * bucketSize_;
        os << prefix << name() << "[" << lo << ":"
           << (lo + bucketSize_) << ") " << counts_[i] << "\n";
    }
    if (overflow_ > 0)
        os << prefix << name() << ".overflow " << overflow_ << "\n";
}

void
Distribution::visit(Visitor &v, const std::string &prefix) const
{
    const std::string base = prefix + name();
    v.record(base + ".count", static_cast<double>(count_));
    v.record(base + ".mean", mean());
    if (count_ > 0) {
        v.record(base + ".min", static_cast<double>(minSeen_));
        v.record(base + ".max", static_cast<double>(maxSeen_));
    }
}

void
Distribution::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = count_ = 0;
    sum_ = 0;
    minSeen_ = maxSeen_ = 0;
}

void
Scalar::serializeValue(Serializer &s) const
{
    s.putU64(value_);
}

void
Scalar::deserializeValue(Deserializer &d)
{
    value_ = d.getU64();
}

void
Vector::serializeValue(Serializer &s) const
{
    s.putVecU64(values_);
}

void
Vector::deserializeValue(Deserializer &d)
{
    d.getVecU64(values_, name().c_str());
}

void
Distribution::serializeValue(Serializer &s) const
{
    s.putVecU64(counts_);
    auto w = s.record(7 * 8);
    w.putU64(underflow_);
    w.putU64(overflow_);
    w.putU64(count_);
    // 128-bit sum as a lo/hi pair (checkpoint format v2).
    w.putU64(static_cast<std::uint64_t>(sum_));
    w.putU64(static_cast<std::uint64_t>(sum_ >> 64));
    w.putU64(minSeen_);
    w.putU64(maxSeen_);
}

void
Distribution::deserializeValue(Deserializer &d)
{
    d.getVecU64(counts_, name().c_str());
    auto r = d.record(7 * 8);
    underflow_ = r.getU64();
    overflow_ = r.getU64();
    count_ = r.getU64();
    const std::uint64_t sum_lo = r.getU64();
    const std::uint64_t sum_hi = r.getU64();
    sum_ = (static_cast<unsigned __int128>(sum_hi) << 64) | sum_lo;
    minSeen_ = r.getU64();
    maxSeen_ = r.getU64();
}

void
Formula::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << formatDouble(value()) << " # "
       << desc() << "\n";
}

void
Formula::visit(Visitor &v, const std::string &prefix) const
{
    v.record(prefix + name(), value());
}

Group::Group(Group &parent, std::string name) : name_(std::move(name))
{
    parent.children_.push_back(this);
}

void
Group::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string my_prefix =
        prefix.empty() ? name_ + "." : prefix + name_ + ".";
    for (const auto *stat : stats_)
        stat->dump(os, my_prefix);
    for (const auto *child : children_)
        child->dump(os, my_prefix);
}

void
Group::visit(Visitor &v, const std::string &prefix) const
{
    const std::string my_prefix =
        prefix.empty() ? name_ + "." : prefix + name_ + ".";
    for (const auto *stat : stats_)
        stat->visit(v, my_prefix);
    for (const auto *child : children_)
        child->visit(v, my_prefix);
}

void
Group::reset()
{
    for (auto *stat : stats_)
        stat->reset();
    for (auto *child : children_)
        child->reset();
}

void
Group::serialize(Serializer &s) const
{
    s.putTag(fourcc("STAT"));
    s.putU64(stats_.size());
    for (const auto *stat : stats_)
        stat->serializeValue(s);
    s.putU64(children_.size());
    for (const auto *child : children_)
        child->serialize(s);
}

void
Group::deserialize(Deserializer &d)
{
    d.expectTag(fourcc("STAT"), name_.c_str());
    if (d.getU64() != stats_.size())
        throw CheckpointError("stat count mismatch in group " +
                              name_);
    for (auto *stat : stats_)
        stat->deserializeValue(d);
    if (d.getU64() != children_.size())
        throw CheckpointError("child group count mismatch in " +
                              name_);
    for (auto *child : children_)
        child->deserialize(d);
}

namespace {

/** True when @p path starts with "@p head." (a dotted descent). */
bool
descendsInto(const std::string &path, const std::string &head)
{
    return path.size() > head.size() + 1 &&
           path.compare(0, head.size(), head) == 0 &&
           path[head.size()] == '.';
}

} // namespace

const Stat *
Group::find(const std::string &path) const
{
    for (const auto *stat : stats_) {
        if (stat->name() == path)
            return stat;
    }
    // Group names may themselves contain dots ("core0.mem"), so the
    // descent matches whole child names against the path head rather
    // than splitting at the first dot.
    for (const auto *child : children_) {
        if (!descendsInto(path, child->name()))
            continue;
        if (const Stat *found =
                child->find(path.substr(child->name().size() + 1)))
            return found;
    }
    return nullptr;
}

const Group *
Group::findGroup(const std::string &path) const
{
    for (const auto *child : children_) {
        if (child->name() == path)
            return child;
        if (!descendsInto(path, child->name()))
            continue;
        if (const Group *found = child->findGroup(
                path.substr(child->name().size() + 1)))
            return found;
    }
    return nullptr;
}

void
Snapshot::take(const Group &root)
{
    entries_.clear();
    index_.clear();
    root.visit(*this);
}

void
Snapshot::record(const std::string &name, double value)
{
    index_.emplace(name, entries_.size());
    entries_.emplace_back(name, value);
}

std::optional<double>
Snapshot::value(const std::string &name) const
{
    const auto it = index_.find(name);
    if (it == index_.end())
        return std::nullopt;
    return entries_[it->second].second;
}

Snapshot
Snapshot::delta(const Snapshot &older) const
{
    Snapshot out;
    out.entries_.reserve(entries_.size());
    for (const auto &[name, v] : entries_)
        out.record(name, v - older.value(name).value_or(0.0));
    return out;
}

} // namespace stats
} // namespace nuca
