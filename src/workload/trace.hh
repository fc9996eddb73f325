/**
 * @file
 * Instruction-trace capture and replay.
 *
 * The synthetic profiles stand in for SPEC2000, but a user with real
 * traces should be able to drive the simulator with them. The format
 * is a simple line-oriented text encoding — one dynamic instruction
 * per line — chosen for inspectability and tool-friendliness:
 *
 *     <op> <pc-hex> [extra...]
 *
 *   op:  A (int alu)  M (int mult) D (int div)
 *        F (fp alu)   X (fp mult)  Y (fp div)
 *        L (load)     S (store)    B (branch)
 *   loads/stores: extra = <effaddr-hex>
 *   branches:     extra = <taken 0|1> <target-hex>
 *   an optional trailing "d<dist>[,<dist>]" carries register
 *   dependence distances.
 *
 * Example:
 *     L 400104 7fe0010 d3
 *     A 400108 d1,2
 *     B 40010c 1 400090
 */

#ifndef NUCA_WORKLOAD_TRACE_HH
#define NUCA_WORKLOAD_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "cpu/synth_inst.hh"

namespace nuca {

/** Encode one instruction as a trace line (no newline). */
std::string traceEncode(const SynthInst &inst);

/**
 * Parse one trace line.
 * @return the instruction; fatal() on malformed input.
 */
SynthInst traceDecode(const std::string &line);

/** Write @p count instructions from @p source to @p os. */
void writeTrace(std::ostream &os, InstSource &source,
                std::uint64_t count);

/**
 * InstSource replaying a recorded trace, looping at the end (the
 * cores never stop fetching; looping models a steady-state region).
 */
class TraceReplaySource : public InstSource
{
  public:
    /** Load a whole trace stream into memory. */
    explicit TraceReplaySource(std::istream &is);

    /** Replay an already-decoded instruction vector. */
    explicit TraceReplaySource(std::vector<SynthInst> insts);

    SynthInst next() override;

    /** Replayed addresses are raw, and every capture is written in
     *  core 0's address space, so two replays can collide. */
    bool sharesData() const override { return true; }

    /** Checkpoint the replay position (the trace itself is input). */
    void checkpoint(Serializer &s) const override;
    void restore(Deserializer &d) override;

    std::size_t size() const { return insts_.size(); }
    /** Times the trace has wrapped around. */
    std::uint64_t loops() const { return loops_; }

  private:
    std::vector<SynthInst> insts_;
    std::size_t pos_ = 0;
    std::uint64_t loops_ = 0;
};

} // namespace nuca

#endif // NUCA_WORKLOAD_TRACE_HH
