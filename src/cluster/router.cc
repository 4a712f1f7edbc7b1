#include "cluster/router.hh"

namespace rpcvalet::cluster {

std::uint32_t
ClusterView::upCount() const
{
    std::uint32_t up = 0;
    for (std::uint32_t s = 0; s < numServers(); ++s) {
        if (isUp(s))
            ++up;
    }
    return up;
}

std::uint64_t
ClusterView::totalOutstanding() const
{
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < numServers(); ++s)
        total += outstanding(s);
    return total;
}

} // namespace rpcvalet::cluster
