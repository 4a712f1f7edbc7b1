/**
 * @file
 * Application interface for the RPC tier under test.
 *
 * An RpcApplication plays both sides of the §5 microbenchmark:
 *  - client side (run by the traffic generator): makeRequest() builds
 *    the wire bytes of the next RPC, verifyReply() checks the answer;
 *  - server side (run by a modeled core): handle() executes the
 *    request against real in-memory state and reports the modeled
 *    processing time X that occupies the core (step ii of §5's loop).
 *
 * Processing time is drawn from the application's calibrated
 * distribution (Fig. 6) rather than derived from host cycles, so
 * results are machine-independent and match the paper's methodology of
 * replaying measured distributions.
 *
 * Allocation contract: the vectors this interface returns by value,
 * the request from makeRequest() and HandleResult::reply, are the only
 * heap allocations an ordinary RPC makes in steady state
 * (tests/core/alloc_budget_test.cc holds the built-ins to it).
 * Implementations decode with the view decoders of wire_format.hh,
 * read stored values in place, and verify replies without copying.
 * The signatures keep their owning vectors because the benchmark's
 * timing wrapper (perfsuite/interpose.cc) overrides all three;
 * caller-owned buffers that the slot tables reuse would remove the
 * last two allocations, and need that wrapper changed with them.
 */

#ifndef RPCVALET_APP_RPC_APPLICATION_HH
#define RPCVALET_APP_RPC_APPLICATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace rpcvalet::app {

/**
 * One request class of a workload — the unit of per-class tail
 * accounting. A workload declares its classes once (requestClasses());
 * every request carries its class id on the wire (the byte after the
 * opcode) and every HandleResult echoes it, so the serving node can
 * keep one latency recorder per class. Masstree, for example, declares
 * a latency-critical "get" class and a non-critical "scan" class —
 * previously scan latency was simply discarded.
 */
struct RequestClass
{
    /** Class name for reports ("get", "scan", "herd", ...). */
    std::string name;
    /**
     * Whether this class counts toward the headline tail metric.
     * Masstree's long scans are served but not latency-critical (§6.1).
     */
    bool latencyCritical = true;
    /**
     * Declared per-class p99 SLO bound, ns (0 = none declared). The
     * built-ins use the paper's 10x mean class processing time —
     * e.g. Masstree gets declare §6.1's 12.5 us. Per-class SLO
     * attainment in RunStats is computed against this bound.
     */
    double sloNs = 0.0;
};

/** Result of serving one RPC. */
struct HandleResult
{
    /** Core-occupying processing time in ns (the X of §5 step ii). */
    double processingNs = 0.0;
    /** Reply bytes to send back (step iii's payload). */
    std::vector<std::uint8_t> reply;
    /**
     * Which of the workload's requestClasses() this RPC belonged to;
     * must index into that vector. Single-class workloads leave it 0.
     * The class's RequestClass::latencyCritical decides whether the
     * RPC counts toward tail-latency SLO accounting.
     */
    std::uint8_t classId = 0;
    /**
     * Nested RPCs this handler fans out to other cluster nodes (the
     * mRPC/Dagger microservice setting): encoded request byte strings,
     * issued after the handler's own processing time elapses. The
     * parent's reply is deferred until every nested RPC completes, so
     * its measured latency composes end to end across tiers; the
     * parent's core is released while the chain is outstanding (the
     * reply continuation is NI-driven). Empty for ordinary RPCs — the
     * default path is bit-identical with this member unused.
     */
    std::vector<std::vector<std::uint8_t>> nested;
};

/** Interface every workload implements. */
class RpcApplication
{
  public:
    virtual ~RpcApplication() = default;

    /** Client side: produce the next request's wire bytes. */
    virtual std::vector<std::uint8_t> makeRequest(sim::Rng &client_rng) = 0;

    /** Server side: execute a request, produce timing + reply. */
    virtual HandleResult handle(const std::vector<std::uint8_t> &request,
                                sim::Rng &server_rng) = 0;

    /** Client side: check a reply against its request. */
    virtual bool
    verifyReply(const std::vector<std::uint8_t> &request,
                const std::vector<std::uint8_t> &reply) const = 0;

    /** Mean processing time across all request types, ns. */
    virtual double meanProcessingNs() const = 0;

    /** Mean processing time of latency-critical requests only, ns. */
    virtual double
    latencyCriticalMeanNs() const
    {
        return meanProcessingNs();
    }

    /**
     * Expected server-side RPCs per client arrival, >= 1. Chained
     * workloads fan each arrival out into nested RPCs (a 2-tier chain
     * with fanout 2 serves 3 RPCs per arrival), which
     * core::estimateCapacityRps divides into the node's RPC capacity
     * when placing load grids. Single-hop workloads keep the default.
     */
    virtual double requestsPerArrival() const { return 1.0; }

    /**
     * The workload's request classes, indexed by the class id carried
     * on the wire and echoed through HandleResult.classId. Must be
     * non-empty and stable for the workload's lifetime. The default is
     * a single latency-critical class named after the workload.
     */
    virtual std::vector<RequestClass>
    requestClasses() const
    {
        return {RequestClass{name(), true, 0.0}};
    }

    /** Workload name for reports. */
    virtual std::string name() const = 0;
};

} // namespace rpcvalet::app

#endif // RPCVALET_APP_RPC_APPLICATION_HH
