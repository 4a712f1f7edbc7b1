/**
 * @file
 * NI dispatch: queuing topologies and the event-driven core-selection
 * policy API (§4.3).
 *
 * The dispatch *mode* fixes the queuing topology (how many dispatchers
 * and which cores each can reach): 1x16, 4x4, 16x1, or the software
 * pull baseline. The dispatch *policy* is the per-decision heuristic a
 * dispatcher uses to pick among its available cores.
 *
 * §4.3 frames the policy point broadly — "implementations can range
 * from simple hardwired logic to microcoded state machines" — so the
 * policy interface is event-driven and stateful: the dispatcher calls
 * onArrival / onDispatch / onComplete as RPCs flow through it, and
 * select() sees a DispatchContext snapshot (outstanding counts,
 * candidate set, threshold, now-time, RNG). Policies may keep private
 * state across events: bounded per-core queues with deferred
 * assignment (JBSQ), stale-sampled load estimates, dispatch-age
 * tracking, and so on.
 *
 * Policies are instantiated by name through the PolicyRegistry from a
 * parameterized PolicySpec (e.g. "greedy", "pow2:d=3", "jbsq:d=2",
 * "stale-jsq:staleness=50ns"); see policy_spec.hh for how to
 * register a policy from any translation unit.
 */

#ifndef RPCVALET_NI_DISPATCH_POLICY_HH
#define RPCVALET_NI_DISPATCH_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ni/policy_spec.hh"
#include "proto/packet.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace rpcvalet::ni {

/** Queuing topology implemented by the NI (Fig. 1 / §5). */
enum class DispatchMode
{
    /** RPCValet: one NI dispatcher balancing all cores (1x16). */
    SingleQueue,
    /** Each NI backend balances its own row of cores (4x4). */
    PerBackendGroup,
    /** RSS-style static hash to a core at arrival time (16x1). */
    StaticHash,
    /** Software single queue pulled under an MCS lock (§6.2). */
    SoftwarePull,
};

/** Human-readable mode name ("1x16", "4x4", "16x1", "sw-1x16"). */
std::string dispatchModeName(DispatchMode mode);

/** All modes, in the figures' order (1x16, 4x4, 16x1, sw-1x16). */
std::vector<DispatchMode> allDispatchModes();

/**
 * Parse a mode name as printed by dispatchModeName ("1x16", "4x4",
 * "16x1", "sw-1x16"); fatal() on anything else, listing the valid
 * names. The string half of the declarative config quadruple
 * (--mode, --policy, --arrival, --workload).
 */
DispatchMode dispatchModeFromName(const std::string &name);

/**
 * Read-only view of one dispatcher's state, passed to every policy
 * event. References stay valid only for the duration of the call.
 */
struct DispatchContext
{
    /** Per-core outstanding-RPC counts (indexed by global core id). */
    const std::vector<std::uint32_t> &outstanding;
    /** Cores this dispatcher may target. */
    const std::vector<proto::CoreId> &candidates;
    /** Max outstanding per core (§4.3: default 2). */
    std::uint32_t threshold;
    /** Current simulated time. */
    sim::Tick now;
    /** Source of randomness for stochastic policies. */
    sim::Rng &rng;
};

/**
 * Event-driven core-selection strategy. The dispatcher notifies the
 * policy of every RPC arrival, dispatch commitment, and completion, so
 * implementations can maintain private state; select() proposes the
 * next target core.
 *
 * Contract: select() must only return a candidate core whose live
 * outstanding count (ctx.outstanding) is below ctx.threshold — the
 * credit scheme's invariant. It may return nullopt to defer dispatch
 * even when credits are available (e.g. JBSQ's tighter per-core
 * bound); the head entry then waits in the shared CQ and select() is
 * re-asked after the next arrival or completion event.
 */
class DispatchPolicy
{
  public:
    virtual ~DispatchPolicy() = default;

    /** An RPC entered this dispatcher's shared CQ. */
    virtual void
    onArrival(const DispatchContext &ctx)
    {
        (void)ctx;
    }

    /**
     * The dispatcher committed the head RPC to @p core (counts in
     * @p ctx already reflect the commitment).
     */
    virtual void
    onDispatch(proto::CoreId core, const DispatchContext &ctx)
    {
        (void)core;
        (void)ctx;
    }

    /**
     * @p core finished an RPC — its replenish reached the dispatcher
     * (counts in @p ctx already reflect the freed credit).
     */
    virtual void
    onComplete(proto::CoreId core, const DispatchContext &ctx)
    {
        (void)core;
        (void)ctx;
    }

    /**
     * Choose a target for the head of the shared CQ, or nullopt to
     * leave it queued.
     */
    virtual std::optional<proto::CoreId>
    select(const DispatchContext &ctx) = 0;

    /** Canonical spec string of this instance (e.g. "pow2:d=3"). */
    virtual std::string name() const = 0;
};

/**
 * Instantiate the policy named by @p spec via the PolicyRegistry.
 * PolicySpec converts implicitly from a spec string, so
 * makePolicy("jbsq:d=2") works; an unknown name is fatal with the
 * registered names listed.
 */
std::unique_ptr<DispatchPolicy> makePolicy(const PolicySpec &spec);

} // namespace rpcvalet::ni

#endif // RPCVALET_NI_DISPATCH_POLICY_HH
