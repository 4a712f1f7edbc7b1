/**
 * @file
 * One place that knows every self-registering component axis.
 *
 * The repo has six spec registries — dispatch policies, arrival
 * processes, workloads, cluster routers, fault injectors, and
 * connection schedulers — each populated by static registrars at
 * load time. `--list-specs` (on rpcvalet_run and every bench) prints
 * this listing so a user can discover the registered names without
 * reading the source; tests assert on the same structure so a new
 * axis cannot be added without showing up here.
 *
 * It also holds the one check per axis that every front-end (scenario
 * files, bench flags) runs on a component spec the moment the text is
 * read: parse it, then build it through its registry, so an unknown
 * name or a bad parameter dies inside the caller's ErrorContext
 * instead of later in a sweep worker.
 */

#ifndef RPCVALET_CORE_REGISTRY_LISTING_HH
#define RPCVALET_CORE_REGISTRY_LISTING_HH

#include <string>
#include <vector>

#include "app/workload.hh"
#include "cluster/router.hh"
#include "conn/conn.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "ni/policy_spec.hh"

namespace rpcvalet::core {

/** One component axis: its spec label and the registered names. */
struct RegistryAxis
{
    /** The spec `what` label ("policy", "arrival", ...). */
    std::string axis;
    /** Registered names, sorted (as the registry reports them). */
    std::vector<std::string> names;
};

/**
 * Every registry in canonical order: policy, arrival, workload,
 * router, fault, conn. Forces the built-in registrars of each axis
 * to be linked in before listing.
 */
std::vector<RegistryAxis> listRegistries();

/**
 * The `--list-specs` text: one "axis: name, name, ..." line per
 * registry, in canonical order, trailing newline included.
 */
std::string formatRegistryListing();

// Parse @p text and build the component once through its registry
// (fatal on a malformed spec, an unknown name or a bad parameter);
// returns the parsed spec. A fault is built shape-free: node and core
// ranges are checked when a run resolves it against its cluster.

ni::PolicySpec checkPolicy(const std::string &text);
net::ArrivalSpec checkArrival(const std::string &text);
app::WorkloadSpec checkWorkload(const std::string &text);
cluster::RouterSpec checkRouter(const std::string &text);
fault::FaultSpec checkFault(const std::string &text);
conn::ConnSpec checkConnScheduler(const std::string &text);

} // namespace rpcvalet::core

#endif // RPCVALET_CORE_REGISTRY_LISTING_HH
