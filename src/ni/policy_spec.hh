/**
 * @file
 * The dispatch-policy spec axis.
 *
 * A PolicySpec names a registered policy plus its parameters, parsed
 * from the compact sim::Spec string form:
 *
 *   "greedy"                           no parameters
 *   "pow2:d=3"                         one integer parameter
 *   "stale-jsq:staleness=50ns"         durations accept ns/us/ms
 *   "delay-aware:alpha=0.5,init=500ns" multiple ','-separated pairs
 *
 * Specs round-trip through toString() (keys print in sorted order) and
 * are what SystemParams carries, so benches and configs select policies
 * by string without recompiling any layer. PolicyAxis fills in the
 * generic sim::TypedSpec / Registry / Registrar templates (see
 * sim/registry.hh): the "policy" label, the "greedy" default, and
 * factories returning a DispatchPolicy. Policies self-register from any
 * translation unit (see examples/custom_policy_playground.cc):
 *
 *   namespace {
 *   const ni::PolicyRegistrar reg("my-policy",
 *       [](const ni::PolicySpec &spec) {
 *           spec.expectKeys({"gain"});
 *           return std::make_unique<MyPolicy>(
 *               spec.doubleParam("gain", 1.0));
 *       });
 *   } // namespace
 */

#ifndef RPCVALET_NI_POLICY_SPEC_HH
#define RPCVALET_NI_POLICY_SPEC_HH

#include <functional>
#include <memory>

#include "sim/registry.hh"

namespace rpcvalet::ni {

class DispatchPolicy;

/** The dispatch-policy axis (see sim/registry.hh). */
struct PolicyAxis
{
    static constexpr const char *label = "policy";
    /** The paper's greedy least-loaded dispatcher. */
    static constexpr const char *defaultName = "greedy";
    static constexpr const char *noun = "dispatch policy";
    static constexpr const char *plural = "policies";
    using Factory = std::function<std::unique_ptr<DispatchPolicy>(
        const sim::TypedSpec<PolicyAxis> &)>;
    /** Defined in policies.cc, beside the built-in registrars. */
    static void linkBuiltins();
};

using PolicySpec = sim::TypedSpec<PolicyAxis>;
using PolicyRegistry = sim::Registry<PolicyAxis>;
using PolicyRegistrar = sim::Registrar<PolicyAxis>;

} // namespace rpcvalet::ni

#endif // RPCVALET_NI_POLICY_SPEC_HH
