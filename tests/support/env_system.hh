/**
 * @file
 * The library reads no environment, so a test stands where the bench
 * mains stand: to honour REPRO_CHECK, REPRO_CHECK_PERIOD and the
 * other robustness variables of sim/env_config.hh, it installs them
 * itself. EnvCmpSystem is a CmpSystem that does so on construction;
 * the integration tests build theirs this way so that CI can rerun
 * them with the periodic invariant checker on:
 *   REPRO_CHECK=1 REPRO_CHECK_PERIOD=50000 ctest -R 'EndToEnd|...'
 */

#ifndef NUCA_TESTS_SUPPORT_ENV_SYSTEM_HH
#define NUCA_TESTS_SUPPORT_ENV_SYSTEM_HH

#include <utility>

#include "sim/cmp_system.hh"
#include "sim/env_config.hh"

namespace nuca {

class EnvCmpSystem : public CmpSystem
{
  public:
    /** The CmpSystem constructor's arguments. */
    template <typename... Args>
    explicit EnvCmpSystem(Args &&...args)
        : CmpSystem(std::forward<Args>(args)...)
    {
        setRobustness(robustnessFromEnv());
    }
};

} // namespace nuca

#endif // NUCA_TESTS_SUPPORT_ENV_SYSTEM_HH
