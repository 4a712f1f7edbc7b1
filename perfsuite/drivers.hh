/**
 * @file
 * Isolated layer drivers: each one times a single public API of one
 * layer on inputs shaped like the workload's own traffic, so a change
 * to that layer shows up without the rest of the simulator around it.
 */

#ifndef RPCVALET_PERFSUITE_DRIVERS_HH
#define RPCVALET_PERFSUITE_DRIVERS_HH

#include <cstdint>

#include "app/workload.hh"
#include "ni/policy_spec.hh"

namespace rpcvalet::perfsuite {

struct DriverResults
{
    /** Mean 64 B blocks per RPC (request + reply). */
    double blocksPerRpc = 0.0;
    double packetizeNsPerMsg = 0.0;
    double reassembleNsPerMsg = 0.0;
    double fabricNsPerPacket = 0.0;
    double dispatcherNsPerRpc = 0.0;
    double eventNsPerEvent = 0.0;
    double recordNsPerSample = 0.0;
    /** percentileNs over one workload-sized recorder, ms. */
    double percentileMs = 0.0;
    /** WindowPool::run of one empty window over 5 domains, ns. */
    double windowNs = 0.0;
    /** Median WorkloadRegistry::make wall, s. */
    double appBuildS = 0.0;
};

/**
 * Run every driver. Messages come from @p workload's own makeRequest
 * and handle, seeded by @p seed; the recorder holds @p samples entries.
 */
DriverResults runDrivers(const app::WorkloadSpec &workload,
                         const ni::PolicySpec &policy, std::uint64_t seed,
                         std::uint64_t samples);

} // namespace rpcvalet::perfsuite

#endif // RPCVALET_PERFSUITE_DRIVERS_HH
