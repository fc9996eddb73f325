#include "cpu/func_units.hh"

#include "base/logging.hh"
#include "serialize/serializer.hh"

namespace nuca {

FuncUnits::FuncUnits(stats::Group &parent, const std::string &name,
                     const FuncUnitParams &params)
    : statsGroup_(parent, name),
      stalls_(statsGroup_, "structural_stalls",
              "issue attempts blocked by a busy unit")
{
    fatal_if(params.intAlus == 0 || params.memPorts == 0,
             "cores need at least one ALU and one memory port");
    intAlu_.busyUntil.assign(params.intAlus, 0);
    fpAlu_.busyUntil.assign(params.fpAlus, 0);
    intMultDiv_.busyUntil.assign(params.intMultDiv, 0);
    fpMultDiv_.busyUntil.assign(params.fpMultDiv, 0);
    memPort_.busyUntil.assign(params.memPorts, 0);
}

FuncUnits::Pool &
FuncUnits::poolFor(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        return intAlu_;
      case OpClass::FpAlu:
        return fpAlu_;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return intMultDiv_;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return fpMultDiv_;
      case OpClass::Load:
      case OpClass::Store:
        return memPort_;
    }
    panic("unknown op class");
}

Cycle
FuncUnits::issueInterval(OpClass op)
{
    switch (op) {
      case OpClass::IntDiv:
      case OpClass::FpDiv:
        // Divides are unpipelined: the unit is held for the full
        // operation latency.
        return opLatency(op);
      default:
        return 1;
    }
}

bool
FuncUnits::tryIssue(OpClass op, Cycle now)
{
    if (poolFor(op).claim(now, issueInterval(op)))
        return true;
    ++stalls_;
    return false;
}

void
FuncUnits::checkpoint(Serializer &s) const
{
    s.putTag(fourcc("FUNC"));
    for (const auto *pool :
         {&intAlu_, &fpAlu_, &intMultDiv_, &fpMultDiv_, &memPort_})
        s.putVecU64(pool->busyUntil);
}

void
FuncUnits::restore(Deserializer &d)
{
    d.expectTag(fourcc("FUNC"), "functional units");
    for (auto *pool :
         {&intAlu_, &fpAlu_, &intMultDiv_, &fpMultDiv_, &memPort_})
        d.getVecU64(pool->busyUntil, "unit pool");
}

} // namespace nuca
