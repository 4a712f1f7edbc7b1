#include "node/params.hh"

#include "sim/logging.hh"

namespace rpcvalet::node {

void
SystemParams::validate() const
{
    domain.validate();
    if (meshRows <= 0 || meshCols <= 0)
        sim::fatal("node needs at least one core (meshRows, meshCols >= 1)");
    if (dispatcherBackend >= numBackends())
        sim::fatal("dispatcherBackend out of range");
    if (outstandingPerCore == 0)
        sim::fatal("outstandingPerCore must be at least 1");
    ni::PolicyRegistry::instance().expectRegistered(policy.name);
}

} // namespace rpcvalet::node
