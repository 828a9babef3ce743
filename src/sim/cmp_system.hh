/**
 * @file
 * CmpSystem: the name earlier code gave the multi-core simulator.
 *
 * Simulator runs any number of cores; CmpSystem only keeps the
 * (config, prefetcher, cores) constructor under its old name, for
 * code that still spells a multi-core system that way.
 */

#ifndef EBCP_SIM_CMP_SYSTEM_HH
#define EBCP_SIM_CMP_SYSTEM_HH

#include "sim/simulator.hh"

namespace ebcp
{

/** A Simulator of @p cores cores. */
class CmpSystem : public Simulator
{
  public:
    CmpSystem(const SimConfig &cfg, const PrefetcherParams &pf,
              unsigned cores)
        : Simulator(cfg, pf, cores)
    {}
};

} // namespace ebcp

#endif // EBCP_SIM_CMP_SYSTEM_HH
