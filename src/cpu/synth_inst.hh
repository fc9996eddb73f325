/**
 * @file
 * The dynamic instruction record exchanged between a workload
 * generator and the out-of-order core, and the source interface the
 * core pulls instructions from.
 *
 * The core is trace-driven: the workload supplies the committed-path
 * instruction stream (op class, PC, effective address, register
 * dependences as backward distances, branch outcome). The core adds
 * all timing: structural limits, dependence stalls, branch
 * misprediction and the memory hierarchy.
 */

#ifndef NUCA_CPU_SYNTH_INST_HH
#define NUCA_CPU_SYNTH_INST_HH

#include "base/types.hh"
#include "cpu/op_class.hh"
#include "serialize/serializer.hh"

namespace nuca {

/** One dynamic instruction of the committed path. */
struct SynthInst
{
    OpClass op = OpClass::IntAlu;

    /** Instruction address (drives I-cache and predictor indexing). */
    Addr pc = 0;

    /** Effective address; meaningful for loads and stores only. */
    Addr effAddr = 0;

    /**
     * Register dependences as backward dynamic distances: this
     * instruction reads the results of the instructions
     * `distance` positions earlier in the stream. 0 = unused slot.
     */
    std::uint32_t depDist[2] = {0, 0};

    /** Branch outcome (meaningful when op == Branch). */
    bool taken = false;

    /** Branch target when taken. */
    Addr target = 0;

    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool isBranch() const { return op == OpClass::Branch; }
    bool isMem() const { return isMemOp(op); }
};

/** Checkpoint one dynamic instruction record. */
inline void
checkpointInst(Serializer &s, const SynthInst &inst)
{
    s.putU8(static_cast<std::uint8_t>(inst.op));
    s.putU64(inst.pc);
    s.putU64(inst.effAddr);
    s.putU32(inst.depDist[0]);
    s.putU32(inst.depDist[1]);
    s.putBool(inst.taken);
    s.putU64(inst.target);
}

/** Restore an instruction written by checkpointInst. */
inline void
restoreInst(Deserializer &d, SynthInst &inst)
{
    const auto op = d.getU8();
    if (op > static_cast<std::uint8_t>(OpClass::Branch))
        throw CheckpointError("checkpoint holds an invalid op class");
    inst.op = static_cast<OpClass>(op);
    inst.pc = d.getU64();
    inst.effAddr = d.getU64();
    inst.depDist[0] = d.getU32();
    inst.depDist[1] = d.getU32();
    inst.taken = d.getBool();
    inst.target = d.getU64();
}

/** Pull-interface the core fetches its committed path from. */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    /** Produce the next dynamic instruction. Never ends. */
    virtual SynthInst next() = 0;

    /**
     * True when this stream may touch addresses another core's
     * stream also touches; CmpSystem then keeps the private L1/L2
     * hierarchies coherent through a CoherenceHub.
     */
    virtual bool sharesData() const { return false; }

    /**
     * Checkpoint the source's position/state. Sources that opt out
     * (bespoke test doubles) inherit these defaults, which refuse
     * with CheckpointError instead of silently dropping state.
     */
    virtual void
    checkpoint(Serializer &s) const
    {
        (void)s;
        throw CheckpointError("instruction source does not support "
                              "checkpointing");
    }

    /** Restore state written by checkpoint(). */
    virtual void
    restore(Deserializer &d)
    {
        (void)d;
        throw CheckpointError("instruction source does not support "
                              "checkpointing");
    }
};

} // namespace nuca

#endif // NUCA_CPU_SYNTH_INST_HH
