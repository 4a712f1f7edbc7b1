/**
 * @file
 * Calibrated RPC processing-time profiles (Fig. 6).
 *
 * The paper collected these distributions from real HERD and Masstree
 * runs on a Xeon server; that hardware is unavailable here, so each
 * profile is a synthetic model matched to the published shape and
 * moments (tests/node/calibration_test.cc checks the resulting service
 * times against §6.1):
 *
 *  - HERD (Fig. 6b): unimodal, right-skewed, support ~[0, 1 us],
 *    mean 330 ns  ->  log-normal(mean 330, sigma 0.45) clamped to
 *    [80, 1000] ns.
 *  - Masstree gets (Fig. 6c): mean 1.25 us, spread ~0.5-4 us  ->
 *    log-normal(mean 1250, sigma 0.55) clamped to [200, 8000] ns.
 *  - Masstree scans (§5): 60-120 us  ->  uniform(60000, 120000) ns.
 */

#ifndef RPCVALET_APP_SERVICE_PROFILES_HH
#define RPCVALET_APP_SERVICE_PROFILES_HH

#include "sim/distributions.hh"

namespace rpcvalet::app {

/** HERD RPC processing-time model (Fig. 6b; mean ~330 ns). */
sim::DistributionPtr makeHerdProfile();

/** Masstree get processing-time model (Fig. 6c; mean ~1.25 us). */
sim::DistributionPtr makeMasstreeGetProfile();

/** Masstree ordered-scan runtime model (§5: 60-120 us). */
sim::DistributionPtr makeMasstreeScanProfile();

} // namespace rpcvalet::app

#endif // RPCVALET_APP_SERVICE_PROFILES_HH
