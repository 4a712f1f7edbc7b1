#include "core/registry_listing.hh"

#include "ni/dispatch_policy.hh"

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

template <typename Axis, typename... Args>
sim::TypedSpec<Axis>
check(const std::string &text, Args... args)
{
    const sim::TypedSpec<Axis> spec(text);
    (void)sim::Registry<Axis>::instance().make(spec, args...);
    return spec;
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

ni::PolicySpec
checkPolicy(const std::string &text)
{
    return check<ni::PolicyAxis>(text);
}

net::ArrivalSpec
checkArrival(const std::string &text)
{
    // Any positive rate builds the process; the run supplies its own.
    return check<net::ArrivalAxis>(text, /*rate_per_sec=*/1e6);
}

app::WorkloadSpec
checkWorkload(const std::string &text)
{
    return check<app::WorkloadAxis>(text);
}

cluster::RouterSpec
checkRouter(const std::string &text)
{
    return check<cluster::RouterAxis>(text);
}

fault::FaultSpec
checkFault(const std::string &text)
{
    return check<fault::FaultAxis>(text);
}

conn::ConnSpec
checkConnScheduler(const std::string &text)
{
    return check<conn::ConnAxis>(text);
}

} // namespace rpcvalet::core
