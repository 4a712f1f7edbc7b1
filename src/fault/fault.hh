/**
 * @file
 * Fault injection: the fifth spec axis.
 *
 * Chaos experiments need composable, timed, string-selectable fault
 * models; a node failure is just one of them ("crash:"). This
 * subsystem is one of the six spec axes built on sim/registry.hh:
 *
 *  - FaultSpec       "name:key=value,..." (sim::TypedSpec with fault
 *                    diagnostics, empty by default), e.g.
 *                    "crash:node=3,at=50us"
 *  - Fault           a registered fault model; validates its spec
 *                    against the cluster shape and resolves into the
 *                    run's static fault timeline
 *  - Resolution      the resolved products: timed activations (crash /
 *                    ni-stall / slow-core windows, armed as events on
 *                    the owning node's domain) and packet-level fault
 *                    configs (loss / delay / corruption applied at the
 *                    fabric boundary, see fault/packet_faults.hh)
 *  - FaultScheduler  arms the timed activations as simulator events on
 *                    each victim's own EventDomain, so faults compose
 *                    with conservative parallel DES: a fault fires
 *                    inside its owning domain's window and its
 *                    cross-domain effects ride the lookahead-checked
 *                    mailboxes like any other traffic
 *  - FaultRegistry   process-wide name -> factory table; fault models
 *                    self-register via FaultRegistrar, including from
 *                    outside src/
 *
 * Built-ins (src/fault/faults.cc):
 *
 *   crash:node=,at=[,recover_after=]     node drops all traffic
 *   packet-loss:p=[,edge=]               drop Send packets w.p. p
 *   packet-delay:add=,jitter=[,dist=]    extra fabric latency
 *   packet-corrupt:p=                    flip a reply payload byte
 *   ni-stall:node=,at=,for=              NI stops draining ingress
 *   slow-core:node=,core=,factor=,at=,for=   straggler core
 *
 * The client-side half of the robustness story — RetryPolicy — also
 * lives here: timed-out requests retry with exponential backoff
 * against an attempt budget, optionally hedged (see
 * net::TrafficGenerator).
 */

#ifndef RPCVALET_FAULT_FAULT_HH
#define RPCVALET_FAULT_FAULT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/domain.hh"
#include "sim/registry.hh"

namespace rpcvalet::fault {

/**
 * One entry of a run's resolved fault timeline. Timed activations
 * (crash, ni-stall, slow-core) are armed as simulator events; packet
 * faults (loss, delay, corruption) are active for the whole run and
 * appear here with timed == false so the activation log and
 * --explain-faults show every injected fault.
 */
struct Activation
{
    /** Canonical spec string of the originating fault. */
    std::string spec;
    /** Registry name ("crash", "ni-stall", ...). */
    std::string kind;
    /** Victim server index, -1 for fabric-wide faults. */
    std::int32_t node = -1;
    /** Victim core, -1 when the fault targets a whole node. */
    std::int32_t core = -1;
    /** Slowdown factor (slow-core), 1.0 otherwise. */
    double factor = 1.0;
    /** Activation time (0 for run-wide packet faults). */
    sim::Tick at = 0;
    /** End of the fault window; 0 = never ends. */
    sim::Tick until = 0;
    /** Whether the activation is armed as a timed event. */
    bool timed = false;

    /** One-line rendering for logs and --explain-faults. */
    std::string describe() const;

    bool operator==(const Activation &other) const;
    bool operator!=(const Activation &other) const;
};

/** Packet-level fault parameters applied at the fabric boundary. */
struct PacketFaultConfig
{
    enum class Kind
    {
        Loss,    ///< drop Send packets with probability p
        Delay,   ///< add (jittered) latency to every packet
        Corrupt, ///< flip a payload byte of reply packets w.p. p
    };

    Kind kind = Kind::Loss;
    /** Canonical spec string (diagnostics). */
    std::string spec;
    /** Loss / corruption probability. */
    double p = 0.0;
    /** Loss only: restrict to packets to/from this server index
     *  (-1 = every edge). */
    std::int32_t edge = -1;
    /** Delay only: fixed extra latency. */
    sim::Tick add = 0;
    /** Delay only: jitter magnitude (0 = deterministic). */
    sim::Tick jitter = 0;
    /** Delay only: jitter distribution — true for uniform in
     *  [0, jitter), false for exponential with mean jitter. */
    bool uniformJitter = true;
};

/** Cluster shape a fault resolves against. */
struct ResolveContext
{
    /** Server nodes behind the router. */
    std::uint32_t numNodes = 1;
    /** Cores per server node. */
    std::uint32_t coresPerNode = 1;
    /** Whether the run executes as parallel DES. Timed faults at t=0
     *  would have to fire before the first window opens and are
     *  rejected. */
    bool parallel = false;
};

/** Resolved products of a fault list. */
struct Resolution
{
    /** Every activation, sorted by (at, declaration order). */
    std::vector<Activation> timeline;
    /** Packet-level fault configs, in declaration order. */
    std::vector<PacketFaultConfig> packet;

    /** True when any packet fault corrupts payloads (the experiment
     *  layer then reports verify failures as detected corruptions
     *  instead of dying on them). */
    bool corruptsReplies() const;

    /** True when any packet fault can drop packets. Dropped requests
     *  and replies are recovered end to end (client timeout/retry,
     *  server reply-slot lease), so the experiment layer requires a
     *  request timeout and arms the lease when this holds. */
    bool dropsPackets() const;

    /**
     * Union of the timed activations' fault windows, merged and
     * sorted — the "degraded" intervals for split tail reporting. An
     * activation that never ends contributes an open interval
     * [at, Tick max).
     */
    std::vector<std::pair<sim::Tick, sim::Tick>> degradedWindows() const;
};

/** Interface every fault model implements. */
class Fault
{
  public:
    virtual ~Fault() = default;

    /** Canonical spec string of this instance (for reports). */
    virtual std::string name() const = 0;

    /**
     * Validate this fault against the cluster shape (fatal with the
     * offending spec on out-of-range targets) and append its resolved
     * activations / packet configs to @p out.
     */
    virtual void resolve(const ResolveContext &ctx,
                         Resolution &out) const = 0;
};

using FaultPtr = std::unique_ptr<Fault>;

/** The fault axis (see sim/registry.hh). */
struct FaultAxis
{
    static constexpr const char *label = "fault";
    /** No default: a FaultSpec{} names no fault. */
    static constexpr const char *defaultName = "";
    static constexpr const char *noun = "fault";
    static constexpr const char *plural = "faults";
    using Factory =
        std::function<FaultPtr(const sim::TypedSpec<FaultAxis> &)>;
    /** Defined in faults.cc, beside the built-in registrars. */
    static void linkBuiltins();
};

using FaultSpec = sim::TypedSpec<FaultAxis>;
using FaultRegistry = sim::Registry<FaultAxis>;
using FaultRegistrar = sim::Registrar<FaultAxis>;

/**
 * Resolve a fault list into the run's static timeline: every spec is
 * instantiated through the registry (unknown names and bad parameters
 * die here, before any event runs) and validated against @p ctx. The
 * timeline is deterministic — it depends only on the specs and the
 * cluster shape, never on execution order — which is what makes the
 * activation log bit-identical across sequential and parallel runs.
 */
Resolution resolveFaults(const std::vector<FaultSpec> &faults,
                         const ResolveContext &ctx);

/**
 * Arms a resolution's timed activations as simulator events. The
 * experiment layer supplies the victim hooks (RpcNode entry points)
 * and the node -> EventDomain mapping; every activation is scheduled
 * on its victim's own domain, so in parallel runs the fault fires
 * inside the owning domain's window like any local event.
 */
class FaultScheduler
{
  public:
    struct Hooks
    {
        /** crash: node drops (or resumes accepting) all traffic. */
        std::function<void(std::uint32_t node, bool failed)> setNodeFailed;
        /** ni-stall: node's NI ingress pipelines stall until @p until. */
        std::function<void(std::uint32_t node, sim::Tick until)> stallNi;
        /** slow-core: multiply one core's processing time. */
        std::function<void(std::uint32_t node, std::uint32_t core,
                           double factor)>
            setCoreSlowdown;
    };

    FaultScheduler(const Resolution &resolution, Hooks hooks);

    /**
     * Schedule every timed activation (begin and, where the fault
     * recovers, end) on its victim's domain. @p domainOf maps a server
     * index to the EventDomain executing that node. Call once, at
     * construction time, before the run starts (all domains at t=0).
     */
    void
    arm(const std::function<sim::EventDomain &(std::uint32_t)> &domainOf);

  private:
    const Resolution &resolution_;
    Hooks hooks_;
    bool armed_ = false;
};

/**
 * Client-side recovery policy: what the traffic generator does with a
 * request that exceeds the cluster request timeout. The defaults
 * reproduce the legacy behavior bit-identically: unlimited immediate
 * re-dispatch, no hedging, no extra Rng draws or events.
 */
struct RetryPolicy
{
    /** Total send attempts per request; 0 = unlimited (legacy). A
     *  request that times out on its maxAttempts-th attempt is dropped
     *  and counted in RunStats.fault.retryDrops. */
    std::uint32_t maxAttempts = 0;
    /** First retry's backoff delay; 0 = immediate re-dispatch
     *  (legacy). */
    sim::Tick baseBackoff = 0;
    /** Exponential backoff growth per attempt (>= 1). */
    double multiplier = 2.0;
    /** Uniform backoff jitter as a fraction of the delay, in [0, 1]:
     *  delay *= 1 + jitter * (2u - 1). Drawn from a dedicated stream
     *  only when > 0. */
    double jitter = 0.0;
    /** Age at which a still-unanswered request is hedged with a
     *  duplicate send (first reply wins); 0 = hedging off. Must be
     *  below the request timeout. */
    sim::Tick hedgeAfter = 0;

    /** True when any knob differs from the legacy defaults. */
    bool active() const;

    /** Fatal on inconsistent settings. Retries and hedges trigger off
     *  the timeout sweep, so an active policy requires
     *  @p requestTimeout > 0. */
    void validate(sim::Tick requestTimeout) const;
};

} // namespace rpcvalet::fault

#endif // RPCVALET_FAULT_FAULT_HH
