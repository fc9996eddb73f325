#include "cpu/branch_predictor.hh"

#include "base/intmath.hh"
#include "base/logging.hh"
#include "serialize/serializer.hh"

namespace nuca {

namespace {

/** Update a 2-bit saturating counter towards @p taken. */
void
train(std::uint8_t &ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace

BranchPredictor::BranchPredictor(stats::Group &parent,
                                 const std::string &name,
                                 const BranchPredictorParams &params)
    : params_(params),
      statsGroup_(parent, name),
      lookups_(statsGroup_, "lookups", "branches predicted"),
      dirWrong_(statsGroup_, "dir_mispredicts",
                "direction mispredictions"),
      targetWrong_(statsGroup_, "target_mispredicts",
                   "taken branches whose BTB target was wrong or "
                   "missing")
{
    fatal_if(!isPowerOf2(params_.bimodalEntries) ||
                 !isPowerOf2(params_.historyEntries) ||
                 !isPowerOf2(params_.chooserEntries),
             "predictor tables must be powers of two");
    fatal_if(params_.historyBits == 0 || params_.historyBits > 16,
             "history width must be in [1, 16]");
    fatal_if(params_.btbAssoc == 0 ||
                 params_.btbEntries % params_.btbAssoc != 0,
             "BTB associativity must divide its entry count");

    historyMask_ = (1u << params_.historyBits) - 1;
    // Weakly-taken initial state.
    bimodal_.assign(params_.bimodalEntries, 2);
    histories_.assign(params_.historyEntries, 0);
    pattern_.assign(1u << params_.historyBits, 2);
    chooser_.assign(params_.chooserEntries, 2);
    btb_.assign(params_.btbEntries, BtbEntry{});
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<unsigned>(pc >> 2) &
           (params_.bimodalEntries - 1);
}

unsigned
BranchPredictor::historyIndex(Addr pc) const
{
    return static_cast<unsigned>(pc >> 2) &
           (params_.historyEntries - 1);
}

unsigned
BranchPredictor::chooserIndex(Addr pc) const
{
    return static_cast<unsigned>(pc >> 2) &
           (params_.chooserEntries - 1);
}

bool
BranchPredictor::bimodalTaken(Addr pc) const
{
    return bimodal_[bimodalIndex(pc)] >= 2;
}

bool
BranchPredictor::twoLevelTaken(Addr pc) const
{
    const auto hist = histories_[historyIndex(pc)] & historyMask_;
    return pattern_[hist] >= 2;
}

const BranchPredictor::BtbEntry *
BranchPredictor::btbLookup(Addr pc) const
{
    const unsigned sets = params_.btbEntries / params_.btbAssoc;
    const unsigned set = static_cast<unsigned>(pc >> 2) & (sets - 1);
    for (unsigned w = 0; w < params_.btbAssoc; ++w) {
        const auto &e = btb_[set * params_.btbAssoc + w];
        if (e.valid && e.pc == pc)
            return &e;
    }
    return nullptr;
}

void
BranchPredictor::btbInsert(Addr pc, Addr target)
{
    const unsigned sets = params_.btbEntries / params_.btbAssoc;
    const unsigned set = static_cast<unsigned>(pc >> 2) & (sets - 1);
    BtbEntry *victim = nullptr;
    for (unsigned w = 0; w < params_.btbAssoc; ++w) {
        auto &e = btb_[set * params_.btbAssoc + w];
        if (e.valid && e.pc == pc) {
            victim = &e;
            break;
        }
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
            continue;
        }
        if (!victim || (victim->valid && e.lastUse < victim->lastUse))
            victim = &e;
    }
    victim->pc = pc;
    victim->target = target;
    victim->valid = true;
    victim->lastUse = ++btbStamp_;
}

BranchPrediction
BranchPredictor::predict(Addr pc) const
{
    const bool use_two_level = chooser_[chooserIndex(pc)] >= 2;
    const bool taken =
        use_two_level ? twoLevelTaken(pc) : bimodalTaken(pc);
    const auto *entry = btbLookup(pc);
    return BranchPrediction{taken, entry ? entry->target : 0,
                            entry != nullptr};
}

void
BranchPredictor::update(Addr pc, bool taken, Addr target)
{
    const bool bim = bimodalTaken(pc);
    const bool two = twoLevelTaken(pc);

    // The chooser trains only when the components disagree.
    if (bim != two)
        train(chooser_[chooserIndex(pc)], two == taken);

    train(bimodal_[bimodalIndex(pc)], taken);
    auto &hist = histories_[historyIndex(pc)];
    train(pattern_[hist & historyMask_], taken);
    hist = static_cast<std::uint16_t>(((hist << 1) | (taken ? 1 : 0)) &
                                      historyMask_);

    if (taken)
        btbInsert(pc, target);
}

bool
BranchPredictor::predictAndUpdate(Addr pc, bool taken, Addr target)
{
    ++lookups_;
    const auto pred = predict(pc);

    bool correct_path = pred.taken == taken;
    if (!correct_path)
        ++dirWrong_;
    if (correct_path && taken) {
        // Right direction, but fetch also needs the right target.
        if (!pred.btbHit || pred.target != target) {
            ++targetWrong_;
            correct_path = false;
        }
    }

    update(pc, taken, target);
    return correct_path;
}

double
BranchPredictor::mispredictRate() const
{
    const auto n = lookups();
    if (n == 0)
        return 0.0;
    return static_cast<double>(directionMispredicts() +
                               targetMispredicts()) /
           static_cast<double>(n);
}

namespace {

/** Wire size of one BTB entry: pc, target, valid, last use. */
constexpr std::size_t btbEntryBytes = 8 + 8 + 1 + 8;

void
putCounterTable(Serializer &s, const std::vector<std::uint8_t> &t)
{
    s.putU64(t.size());
    s.record(t.size()).putBytes(t.data(), t.size());
}

void
getCounterTable(Deserializer &d, std::vector<std::uint8_t> &t,
                const char *what)
{
    if (d.getU64() != t.size())
        throw CheckpointError(std::string("predictor table size "
                                          "mismatch: ") + what);
    d.record(t.size()).getBytes(t.data(), t.size());
}

} // namespace

void
BranchPredictor::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("BPRD"));
    putCounterTable(s, bimodal_);
    s.putU64(histories_.size());
    auto hw = s.record(histories_.size() * 2);
    for (const auto h : histories_)
        hw.putU16(h);
    putCounterTable(s, pattern_);
    putCounterTable(s, chooser_);
    s.putU64(btb_.size());
    auto bw = s.record(btb_.size() * btbEntryBytes);
    for (const auto &e : btb_) {
        bw.putU64(e.pc);
        bw.putU64(e.target);
        bw.putBool(e.valid);
        bw.putU64(e.lastUse);
    }
    s.putU64(btbStamp_);
}

void
BranchPredictor::restore(Deserializer &d)
{
    d.expectTag(fourcc("BPRD"), "branch predictor");
    getCounterTable(d, bimodal_, "bimodal");
    if (d.getU64() != histories_.size())
        throw CheckpointError("predictor history table size "
                              "mismatch");
    auto hr = d.record(histories_.size() * 2);
    for (auto &h : histories_)
        h = hr.getU16();
    getCounterTable(d, pattern_, "pattern");
    getCounterTable(d, chooser_, "chooser");
    if (d.getU64() != btb_.size())
        throw CheckpointError("BTB size mismatch");
    auto br = d.record(btb_.size() * btbEntryBytes);
    for (auto &e : btb_) {
        e.pc = br.getU64();
        e.target = br.getU64();
        e.valid = br.getBool();
        e.lastUse = br.getU64();
    }
    btbStamp_ = d.getU64();
}

} // namespace nuca
