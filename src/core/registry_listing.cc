#include "core/registry_listing.hh"

#include "app/workload.hh"
#include "cluster/router.hh"
#include "conn/conn.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "ni/policy_spec.hh"

namespace rpcvalet::core {

namespace {

template <typename... Axes>
std::vector<RegistryAxis>
listAxes()
{
    // Each instance() links its axis's built-in registrars before first
    // use, so the listing is complete no matter which components the
    // caller has touched so far.
    return {{Axes::label, sim::Registry<Axes>::instance().names()}...};
}

} // namespace

std::vector<RegistryAxis>
listRegistries()
{
    return listAxes<ni::PolicyAxis, net::ArrivalAxis, app::WorkloadAxis,
                    cluster::RouterAxis, fault::FaultAxis, conn::ConnAxis>();
}

std::string
formatRegistryListing()
{
    std::string out;
    for (const RegistryAxis &axis : listRegistries()) {
        out += axis.axis;
        out += ":";
        for (std::size_t i = 0; i < axis.names.size(); ++i) {
            out += i == 0 ? " " : ", ";
            out += axis.names[i];
        }
        out += "\n";
    }
    return out;
}

} // namespace rpcvalet::core
