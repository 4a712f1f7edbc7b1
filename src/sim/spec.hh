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
 *
 * The free functions parseUint, parseReal, parseDuration and parseBool
 * are the one place where typed-in text becomes a value: spec
 * parameters, scenario keys, bench and rpcvalet_run flags and trace
 * files all read through them. They report a malformed value through
 * fatal(), so the caller's ErrorContext supplies the location —
 * "policy 'pow2:d=x': parameter 'd=x'", "file.scn:12 (key = value)",
 * "--flag=value" or "trace.txt:3".
 */

#ifndef RPCVALET_SIM_SPEC_HH
#define RPCVALET_SIM_SPEC_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

#include "sim/types.hh"

namespace rpcvalet::sim {

/**
 * An unsigned integer in [@p lo, @p hi]: plain decimal digits only (no
 * sign, fraction, exponent or spaces), exact up to 2^64-1. fatal() with
 * "not a number", "not a non-negative integer" (a number of another
 * form, such as "2.5", "1e3" or "-1") or "out of range".
 */
std::uint64_t parseUint(const std::string &text, std::uint64_t lo = 0,
                        std::uint64_t hi = UINT64_MAX);

/** A finite real number (strtod syntax, the whole of @p text). */
double parseReal(const std::string &text);

/**
 * A duration: a bare number of nanoseconds, or a number followed by an
 * "ns", "us" or "ms" unit ("50", "1.5us"). fatal() on an unknown unit,
 * or a negative or unrepresentable duration ("out of range").
 */
Tick parseDuration(const std::string &text);

/** true/yes/on/1 or false/no/off/0. */
bool parseBool(const std::string &text);

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

    // Typed parameters: @p fallback when absent, else the value read by
    // the matching parse function above inside an ErrorContext naming
    // the spec and the parameter.

    /** Integer parameter in [@p lo, @p hi] (see parseUint). */
    std::uint64_t uintParam(const std::string &key, std::uint64_t fallback,
                            std::uint64_t lo = 0,
                            std::uint64_t hi = UINT64_MAX) const;

    /** Finite real parameter (see parseReal): inf and nan die here,
     *  so a factory's range check sees only finite values. */
    double doubleParam(const std::string &key, double fallback) const;

    /** Duration parameter (see parseDuration). */
    Tick tickParam(const std::string &key, Tick fallback) const;

    /** Boolean parameter (see parseBool). */
    bool boolParam(const std::string &key, bool fallback) const;

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
