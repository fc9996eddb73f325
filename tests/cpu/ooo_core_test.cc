/** @file Unit tests for the out-of-order core's timing behaviour. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/random.hh"

#include "cpu/ooo_core.hh"
#include "mem/main_memory.hh"
#include "nuca/private_l3.hh"
#include "serialize/serializer.hh"

namespace nuca {
namespace {

/** InstSource generating instructions from an index function. */
class FnSource : public InstSource
{
  public:
    explicit FnSource(std::function<SynthInst(std::uint64_t)> fn)
        : fn_(std::move(fn))
    {}

    SynthInst
    next() override
    {
        return fn_(index_++);
    }

    void checkpoint(Serializer &s) const override { s.putU64(index_); }
    void restore(Deserializer &d) override { index_ = d.getU64(); }

  private:
    std::function<SynthInst(std::uint64_t)> fn_;
    std::uint64_t index_ = 0;
};

/** A full single-core rig: core + hierarchy + private L3 + memory. */
struct Rig
{
    explicit Rig(std::function<SynthInst(std::uint64_t)> fn)
        : root("t"),
          memory(root, "memory", MainMemoryParams{258, 4, 8}),
          l3(root, PrivateL3Params{}, memory),
          mem(root, "mem", 0, CoreMemoryParams{}, l3),
          source(std::move(fn)),
          core(root, "core", 0, OooCoreParams{}, mem, source)
    {
    }

    /** Run for @p cycles and return the committed IPC. */
    double
    run(Cycle cycles)
    {
        for (Cycle t = now_; t < now_ + cycles; ++t)
            core.tick(t);
        now_ += cycles;
        return static_cast<double>(core.committed()) /
               static_cast<double>(now_);
    }

    /** Warm up, then return the IPC of the measured window only
     * (excludes cold-start I-cache misses). */
    double
    runWarm(Cycle warmup, Cycle measure)
    {
        run(warmup);
        const Counter before = core.committed();
        run(measure);
        return static_cast<double>(core.committed() - before) /
               static_cast<double>(measure);
    }

    /** Checkpoint the whole rig: hierarchy, core, source, stats. */
    std::vector<std::uint8_t>
    save() const
    {
        Serializer s;
        memory.checkpoint(s);
        l3.checkpoint(s);
        mem.checkpoint(s);
        core.checkpoint(s, now_);
        source.checkpoint(s);
        root.serialize(s);
        return s.bytes();
    }

    /** Resume from save()'s bytes taken at cycle @p at. */
    void
    load(const std::vector<std::uint8_t> &bytes, Cycle at)
    {
        Deserializer d(bytes);
        memory.restore(d);
        l3.restore(d);
        mem.restore(d);
        core.restore(d);
        source.restore(d);
        root.deserialize(d);
        now_ = at;
    }

    std::string
    statsDump() const
    {
        std::ostringstream os;
        root.dump(os);
        return os.str();
    }

    Cycle now_ = 0;

    stats::Group root;
    MainMemory memory;
    PrivateL3 l3;
    MemorySystem mem;
    FnSource source;
    OooCore core;
};

/** A plain independent ALU op at a small looping PC. */
SynthInst
aluAt(std::uint64_t i)
{
    SynthInst inst;
    inst.op = OpClass::IntAlu;
    inst.pc = 0x1000 + (i % 256) * 4;
    return inst;
}

TEST(OooCore, IndependentAluStreamReachesFullWidth)
{
    Rig rig(aluAt);
    const double ipc = rig.runWarm(8000, 20000);
    // 4-wide machine with no hazards: IPC close to 4.
    EXPECT_GT(ipc, 3.7);
    EXPECT_LE(ipc, 4.0);
}

TEST(OooCore, SerialDependenceChainLimitsIpcToOne)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.depDist[0] = 1; // each op needs its predecessor
        return inst;
    });
    const double ipc = rig.runWarm(8000, 20000);
    EXPECT_GT(ipc, 0.9);
    EXPECT_LT(ipc, 1.1);
}

TEST(OooCore, FpDividesSerializeOnTheSingleUnit)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.op = OpClass::FpDiv;
        return inst;
    });
    const double ipc = rig.run(20000);
    // One unpipelined FP divider, 12-cycle latency: ~1/12 IPC.
    EXPECT_NEAR(ipc, 1.0 / 12.0, 0.02);
}

TEST(OooCore, LoadsHittingL1SustainMemPortThroughput)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.op = OpClass::Load;
        // A tiny set of hot addresses: after warmup all L1 hits.
        inst.effAddr = 0x100000 + (i % 16) * 8;
        return inst;
    });
    const double ipc = rig.runWarm(8000, 20000);
    // Two memory ports bound an all-load stream at 2 per cycle.
    EXPECT_GT(ipc, 1.8);
    EXPECT_LE(ipc, 2.05);
}

TEST(OooCore, ColdLoadsFillTheRuuWithOutstandingMisses)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        inst.op = OpClass::Load;
        // Every load misses everywhere (streaming).
        inst.effAddr = 0x1000000 + i * blockBytes;
        return inst;
    });
    rig.run(2000);
    // Long-latency misses back the machine up to the L1 MSHR bound
    // (16 outstanding misses) plus issued-but-stalled work.
    EXPECT_GT(rig.core.ruuOccupancy(), 16u);
    EXPECT_GT(rig.core.lsqOccupancy(), 16u);
    EXPECT_GT(rig.mem.l1d().mshrs().structuralStalls(), 0u);
}

TEST(OooCore, MispredictedBranchesThrottleFetch)
{
    // Never-taken branches that the predictor learns perfectly vs
    // 50/50 random branches.
    Rig predictable([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 4 == 3) {
            inst.op = OpClass::Branch;
            inst.pc = 0x2000;
            inst.taken = false;
        }
        return inst;
    });
    auto rng = std::make_shared<Rng>(99);
    Rig random([rng](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 4 == 3) {
            inst.op = OpClass::Branch;
            inst.pc = 0x2000;
            inst.taken = rng->chance(0.5); // irreducibly random
            inst.target = 0x3000;
        }
        return inst;
    });
    const double ipc_good = predictable.runWarm(8000, 30000);
    const double ipc_bad = random.runWarm(8000, 30000);
    EXPECT_GT(ipc_good, ipc_bad * 1.5);
    EXPECT_GT(random.core.predictor().mispredictRate(), 0.2);
}

TEST(OooCore, TakenBranchLimitsFetchToOneBasicBlockPerCycle)
{
    // Alternating taken branches: fetch can pass at most one taken
    // branch per cycle, capping IPC near the run length.
    Rig rig([](std::uint64_t i) {
        SynthInst inst;
        if (i % 2 == 0) {
            inst.op = OpClass::IntAlu;
            inst.pc = 0x1000;
        } else {
            inst.op = OpClass::Branch;
            inst.pc = 0x1004;
            inst.taken = true;
            inst.target = 0x1000;
        }
        return inst;
    });
    const double ipc = rig.run(30000);
    EXPECT_LT(ipc, 2.3);
    EXPECT_GT(ipc, 1.2);
}

TEST(OooCore, StoreToLoadForwardingHappens)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 8 == 0) {
            inst.op = OpClass::Store;
            inst.effAddr = 0x100000 + (i % 64) * 8;
        } else if (i % 8 == 1) {
            inst.op = OpClass::Load;
            inst.effAddr = 0x100000 + ((i - 1) % 64) * 8;
        }
        return inst;
    });
    rig.run(10000);
    EXPECT_GT(rig.core.committed(), 0u);
    // Loads one instruction behind a same-word store forward.
    EXPECT_GT(rig.core.forwardedLoads(), 0u);
}

TEST(OooCore, CommittedMemOpsCountsLoadsAndStores)
{
    Rig rig([](std::uint64_t i) {
        SynthInst inst = aluAt(i);
        if (i % 2 == 0) {
            inst.op = OpClass::Load;
            inst.effAddr = 0x100000 + (i % 8) * 8;
        }
        return inst;
    });
    rig.run(5000);
    const Counter committed = rig.core.committed();
    const Counter mem_ops = rig.core.committedMemOps();
    EXPECT_NEAR(static_cast<double>(mem_ops) /
                    static_cast<double>(committed),
                0.5, 0.05);
}

TEST(OooCore, IcacheMissesStallFetch)
{
    // Jump across a huge code footprint every instruction: every
    // line is cold, so fetch pays an L2I/L3/memory trip per line.
    Rig rig([](std::uint64_t i) {
        SynthInst inst;
        inst.op = OpClass::IntAlu;
        inst.pc = 0x1000 + i * 4096;
        return inst;
    });
    const double ipc = rig.run(20000);
    EXPECT_LT(ipc, 0.1);
}

TEST(OooCore, DeterministicAcrossRuns)
{
    Rig a(aluAt), b(aluAt);
    a.run(5000);
    b.run(5000);
    EXPECT_EQ(a.core.committed(), b.core.committed());
}

/**
 * Cold loads (258-cycle memory) with dependents that wait on them,
 * plus short multiply/divide chains: the issue scheduler holds
 * wake-ups both in the wheel's one-cycle buckets and, for the
 * consumers of misses, in its overflow heap.
 */
SynthInst
missesAndChains(std::uint64_t i)
{
    SynthInst inst = aluAt(i);
    switch (i % 8) {
      case 0:
        inst.op = OpClass::Load;
        inst.effAddr = 0x100000 + i * 4096;
        break;
      case 1:
        inst.depDist[0] = 1; // waits for the miss
        break;
      case 2:
      case 3:
        inst.op = OpClass::IntMult;
        inst.depDist[0] = 1;
        break;
      case 4:
        inst.op = OpClass::IntDiv;
        break;
      default:
        inst.depDist[0] = 1;
        inst.depDist[1] = 4;
        break;
    }
    return inst;
}

TEST(OooCore, CheckpointWithPendingWakeupsResumesBitIdentically)
{
    Rig a(missesAndChains);
    a.run(2000);
    // Stop at a cycle where both halves of the wheel hold wake-ups.
    const Cycle limit = a.now_ + 20000;
    while (a.now_ < limit) {
        const auto [bucketed, overflowed] = a.core.pendingWakeups();
        if (bucketed > 0 && overflowed > 0)
            break;
        a.run(1);
    }
    ASSERT_LT(a.now_, limit) << "never had bucketed and overflow "
                                "wake-ups at once";
    const auto bytes = a.save();

    Rig b(missesAndChains);
    b.load(bytes, a.now_);
    EXPECT_EQ(b.save(), bytes);
    a.run(30000);
    b.run(30000);
    EXPECT_GT(a.core.committed(), 1000u);
    EXPECT_EQ(b.statsDump(), a.statsDump());
    EXPECT_EQ(b.save(), a.save());
}

/**
 * A divide, a cold load that needs the divide's result, and a
 * consumer of the load, all on one I-cache line, then a jump to a
 * cold line. When the divide completes, one tick commits it and
 * issues the load; after that the head waits on the load, the
 * consumer on the load's (known) completion cycle, and fetch on the
 * I-cache.
 */
SynthInst
divideThenMiss(std::uint64_t i)
{
    SynthInst inst = aluAt(i);
    switch (i) {
      case 0:
        inst.op = OpClass::IntDiv;
        break;
      case 1:
        inst.op = OpClass::Load;
        inst.effAddr = 0x200000;
        inst.depDist[0] = 1;
        break;
      case 2:
        inst.depDist[0] = 1;
        break;
      default:
        inst.pc = 0x80000 + i * 4;
        break;
    }
    return inst;
}

TEST(OooCore, CommitWithNothingReadyDoesNotWakeTheIssueStage)
{
    Rig rig(divideThenMiss);
    Cycle t = 0;
    for (; t < 2000 && rig.core.committed() == 0; ++t)
        rig.core.tick(t);
    ASSERT_EQ(rig.core.committed(), 1u) << "the divide never committed";
    const Cycle committed_at = t - 1;
    // The load is the head and the consumer its only unissued entry,
    // parked in the wheel until the load completes.
    ASSERT_EQ(rig.core.ruuOccupancy(), 2u);
    const auto [bucketed, overflowed] = rig.core.pendingWakeups();
    ASSERT_EQ(bucketed + overflowed, 1u);

    // The commit and the load's issue both reset the issue stage's
    // sleep, but nothing can issue next cycle: waking then would run
    // an issue pass that issues nothing.
    const Cycle wake = rig.core.nextWakeCycle(committed_at);
    EXPECT_GT(wake, committed_at + 1);

    // Every tick before the wake-up really is a no-op...
    for (t = committed_at + 1; t < wake; ++t) {
        rig.core.tick(t);
        EXPECT_EQ(rig.core.committed(), 1u) << "cycle " << t;
        EXPECT_EQ(rig.core.pendingWakeups().first +
                      rig.core.pendingWakeups().second,
                  1u)
            << "cycle " << t;
    }
    // ...and the core finishes the chain after it.
    for (; t < wake + 2000; ++t)
        rig.core.tick(t);
    EXPECT_GE(rig.core.committed(), 3u);
}

} // namespace
} // namespace nuca
