/**
 * @file
 * Generic "name:key=value,key=value" component specifications.
 *
 * A Spec names a registered component plus its parameters, parsed from
 * a compact string form:
 *
 *   "poisson"                          no parameters
 *   "pow2:d=3"                         one integer parameter
 *   "stale-jsq:staleness=50ns"         durations accept ns/us/ms
 *   "mmpp2:burst=0.1,ratio=10"         multiple ','-separated pairs
 *
 * Specs round-trip through toString() (keys print in sorted order) and
 * carry a `what` label ("policy", "arrival", ...) so every diagnostic
 * names the subsystem the bad spec belongs to. Every spec axis —
 * policy, arrival, workload, router, fault and conn — uses this one
 * parser through sim::TypedSpec (sim/registry.hh), which fills in the
 * axis's label and default name, so all six registries accept the
 * same spec grammar everywhere — configs, bench flags, and tests.
 */

#ifndef RPCVALET_SIM_SPEC_HH
#define RPCVALET_SIM_SPEC_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

#include "sim/types.hh"

namespace rpcvalet::sim {

/** A component selection: registry name plus key=value parameters. */
struct Spec
{
    /**
     * Subsystem label used in error messages ("policy", "arrival");
     * not part of the spec's identity (ignored by comparisons).
     */
    std::string what = "spec";
    /** Registry key (e.g. "greedy", "mmpp2"). */
    std::string name;
    /** Parameters; sorted keys make toString() deterministic. */
    std::map<std::string, std::string> params;

    /**
     * Parse "name" or "name:k=v,k=v" with @p what as the diagnostic
     * label. fatal() on an empty name, an empty key, a missing '=', a
     * duplicate key, or an empty parameter segment (trailing ':' or
     * ',').
     */
    static Spec parse(const std::string &text, const std::string &what);

    /** Canonical string form; parse(toString()) round-trips. */
    std::string toString() const;

    bool has(const std::string &key) const;

    /** Unsigned-integer parameter, @p fallback when absent. */
    std::uint64_t uintParam(const std::string &key,
                            std::uint64_t fallback) const;

    /** Floating-point parameter, @p fallback when absent. */
    double doubleParam(const std::string &key, double fallback) const;

    /**
     * Duration parameter, @p fallback when absent. Accepts a bare
     * number (nanoseconds) or an explicit "ns"/"us"/"ms" suffix.
     */
    Tick tickParam(const std::string &key, Tick fallback) const;

    /**
     * fatal() when a parameter key is not in @p allowed — component
     * factories call this so "pow2:dd=3" dies loudly instead of
     * silently defaulting.
     */
    void expectKeys(std::initializer_list<const char *> allowed) const;

    /** Identity is (name, params); the `what` label is ignored. */
    bool operator==(const Spec &other) const;
    bool operator!=(const Spec &other) const;
};

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_SPEC_HH
