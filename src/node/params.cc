#include "node/params.hh"

#include "sim/logging.hh"

namespace rpcvalet::node {

void
SystemParams::validate() const
{
    domain.validate();
    if (numCores == 0)
        sim::fatal("node needs at least one core");
    if (numCores != static_cast<std::uint32_t>(meshRows * meshCols))
        sim::fatal("numCores must equal meshRows * meshCols");
    if (numBackends == 0 || numBackends > numCores)
        sim::fatal("backend count must be in [1, numCores]");
    if (dispatcherBackend >= numBackends)
        sim::fatal("dispatcherBackend out of range");
    if (outstandingPerCore == 0)
        sim::fatal("outstandingPerCore must be at least 1");
    if (clockGhz <= 0.0)
        sim::fatal("clock frequency must be positive");
    if (nodeId >= domain.numNodes)
        sim::fatal("nodeId outside messaging domain");
    if (mode == ni::DispatchMode::PerBackendGroup &&
        numCores % numBackends != 0) {
        sim::fatal("4x4 mode needs numCores divisible by numBackends");
    }
    ni::PolicyRegistry::instance().expectRegistered(policy.name);
}

} // namespace rpcvalet::node
