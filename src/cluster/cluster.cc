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
}

} // namespace rpcvalet::cluster
