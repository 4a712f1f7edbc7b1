#include "cluster/topology.hh"

#include "sim/logging.hh"

namespace rpcvalet::cluster {

HealthTracker::HealthTracker(std::uint32_t num_nodes,
                             std::uint32_t fail_threshold,
                             sim::Tick recovery_after)
    : nodes_(num_nodes), failThreshold_(fail_threshold),
      recoveryAfter_(recovery_after)
{
    if (num_nodes == 0)
        sim::fatal("health tracker: need at least one node (got 0)");
    if (fail_threshold == 0)
        sim::fatal("health tracker: fail threshold must be >= 1 (got 0)");
}

void
HealthTracker::reportSuccess(std::uint32_t node)
{
    RV_ASSERT(node < nodes_.size(), "health report for unknown node");
    State &s = nodes_[node];
    s.consecutiveFailures = 0;
    if (s.down && s.probing) {
        // The canary came back: the node is genuinely serving again.
        s.down = false;
        s.probing = false;
        s.canaryInFlight = false;
    }
}

bool
HealthTracker::reportFailure(std::uint32_t node, sim::Tick now)
{
    RV_ASSERT(node < nodes_.size(), "health report for unknown node");
    // Refresh recovery state first so a post-recovery failure streak
    // starts from a clean slate.
    (void)isUp(node, now);
    State &s = nodes_[node];
    if (s.down && s.probing) {
        // The canary (or a straggler from before the mark-down) timed
        // out: the node is still dead. Back to fully down, recovery
        // clock restarted.
        s.probing = false;
        s.canaryInFlight = false;
        s.downSince = now;
        s.consecutiveFailures = failThreshold_;
        return false;
    }
    ++s.consecutiveFailures;
    if (!s.down && s.consecutiveFailures >= failThreshold_) {
        s.down = true;
        s.downSince = now;
        ++downTransitions_;
        return true;
    }
    return false;
}

void
HealthTracker::noteRouted(std::uint32_t node)
{
    RV_ASSERT(node < nodes_.size(), "health report for unknown node");
    State &s = nodes_[node];
    if (s.down && s.probing && !s.canaryInFlight)
        s.canaryInFlight = true;
}

bool
HealthTracker::isUp(std::uint32_t node, sim::Tick now) const
{
    RV_ASSERT(node < nodes_.size(), "health query for unknown node");
    State &s = nodes_[node];
    if (s.down && !s.probing && recoveryAfter_ > 0 &&
        now >= s.downSince + recoveryAfter_) {
        // Recovery elapsed: do NOT flip healthy on the timer alone —
        // open a probe window instead. The next routed request is the
        // canary (noteRouted), and only its success clears `down`.
        s.probing = true;
        s.canaryInFlight = false;
    }
    // A probing node is routable exactly until its canary departs.
    return !s.down || (s.probing && !s.canaryInFlight);
}

std::uint32_t
HealthTracker::nodesDown(sim::Tick now) const
{
    std::uint32_t down = 0;
    for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
        if (!isUp(n, now))
            ++down;
    }
    return down;
}

} // namespace rpcvalet::cluster
