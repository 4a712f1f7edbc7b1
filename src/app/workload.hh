/**
 * @file
 * Spec-driven workload selection.
 *
 * The application layer was the last subsystem still wired by hand:
 * policies ("jbsq:d=2") and arrivals ("mmpp2:burst=0.1") are resolved
 * through string-keyed registries, while workloads were concrete
 * classes passed by reference. This subsystem completes the picture
 * as one of the six spec axes built on sim/registry.hh:
 *
 *  - WorkloadSpec      "name:key=value,..." (sim::TypedSpec with
 *                      workload diagnostics), e.g.
 *                      "masstree:scan_ratio=0.02"
 *  - WorkloadRegistry  process-wide name -> factory table; workloads
 *                      self-register via WorkloadRegistrar, including
 *                      from outside src/ (see
 *                      examples/custom_workload_playground.cc). Each
 *                      factory expectKeys()s its spec, so an invalid
 *                      parameter is fatal at make()
 *
 * Built-ins (src/app/workloads.cc):
 *   "herd" (default; §5's HERD-like KV tier), "masstree:scan_ratio="
 *   (ordered store with interfering scans), "masstree-get" /
 *   "masstree-scan" (the pure classes, mix building blocks),
 *   "synthetic:dist=fixed|uniform|exponential|gev[,padding=]" (§5's
 *   echo microbenchmark), "chain:tiers=,fanout=,root_ns=,leaf_ns="
 *   (microservice chain whose handlers fan out nested RPCs per tier),
 *   and the composite "mix:CLASS=WEIGHT,..."
 *   which blends any registered workloads with per-request class tags
 *   (e.g. "mix:masstree-get=0.998,masstree-scan=0.002").
 */

#ifndef RPCVALET_APP_WORKLOAD_HH
#define RPCVALET_APP_WORKLOAD_HH

#include <functional>
#include <memory>

#include "app/rpc_application.hh"
#include "sim/registry.hh"

namespace rpcvalet::app {

using RpcApplicationPtr = std::unique_ptr<RpcApplication>;

/** The workload axis (see sim/registry.hh). */
struct WorkloadAxis
{
    static constexpr const char *label = "workload";
    /** The §5 HERD-like KV tier. */
    static constexpr const char *defaultName = "herd";
    static constexpr const char *noun = "workload";
    static constexpr const char *plural = "workloads";
    using Factory =
        std::function<RpcApplicationPtr(const sim::TypedSpec<WorkloadAxis> &)>;
    /** Defined in workloads.cc, beside the built-in registrars. */
    static void linkBuiltins();
};

using WorkloadSpec = sim::TypedSpec<WorkloadAxis>;
using WorkloadRegistry = sim::Registry<WorkloadAxis>;
using WorkloadRegistrar = sim::Registrar<WorkloadAxis>;

} // namespace rpcvalet::app

#endif // RPCVALET_APP_WORKLOAD_HH
