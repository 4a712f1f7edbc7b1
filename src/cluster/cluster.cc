#include "cluster/cluster.hh"

#include "sim/logging.hh"

namespace rpcvalet::cluster {

void
ClusterConfig::validate() const
{
    if (numServerNodes == 0) {
        sim::fatal("cluster config: numServerNodes must be >= 1 "
                   "(got 0)");
    }
    if (failThreshold == 0) {
        sim::fatal("cluster config: failThreshold must be >= 1 "
                   "(got 0)");
    }
    if (sweepInterval > 0 && requestTimeout == 0) {
        sim::fatal(sim::strfmt(
            "cluster config: sweepInterval %llu requires "
            "requestTimeout > 0 — without timeouts there is no sweep "
            "to tune",
            static_cast<unsigned long long>(sweepInterval)));
    }
}

} // namespace rpcvalet::cluster
