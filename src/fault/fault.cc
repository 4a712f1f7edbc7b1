#include "fault/fault.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::fault {

std::string
Activation::describe() const
{
    std::string target;
    if (node >= 0 && core >= 0)
        target = sim::strfmt("node %d core %d", node, core);
    else if (node >= 0)
        target = sim::strfmt("node %d", node);
    else
        target = "fabric";
    std::string window;
    if (!timed)
        window = "whole run";
    else if (until > 0)
        window = sim::strfmt("[%.3f us, %.3f us)", sim::toUs(at),
                             sim::toUs(until));
    else
        window = sim::strfmt("[%.3f us, end)", sim::toUs(at));
    return sim::strfmt("%-40s %-16s %s", spec.c_str(), target.c_str(),
                       window.c_str());
}

bool
Activation::operator==(const Activation &other) const
{
    return spec == other.spec && kind == other.kind &&
           node == other.node && core == other.core &&
           factor == other.factor && at == other.at &&
           until == other.until && timed == other.timed;
}

bool
Activation::operator!=(const Activation &other) const
{
    return !(*this == other);
}

bool
Resolution::corruptsReplies() const
{
    for (const PacketFaultConfig &pf : packet) {
        if (pf.kind == PacketFaultConfig::Kind::Corrupt)
            return true;
    }
    return false;
}

bool
Resolution::dropsPackets() const
{
    for (const PacketFaultConfig &pf : packet) {
        if (pf.kind == PacketFaultConfig::Kind::Loss)
            return true;
    }
    return false;
}

std::vector<std::pair<sim::Tick, sim::Tick>>
Resolution::degradedWindows() const
{
    constexpr sim::Tick open = std::numeric_limits<sim::Tick>::max();
    std::vector<std::pair<sim::Tick, sim::Tick>> windows;
    for (const Activation &a : timeline) {
        if (!a.timed)
            continue;
        windows.emplace_back(a.at, a.until > 0 ? a.until : open);
    }
    std::sort(windows.begin(), windows.end());
    // Merge overlapping / adjacent intervals.
    std::vector<std::pair<sim::Tick, sim::Tick>> merged;
    for (const auto &w : windows) {
        if (!merged.empty() && w.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second, w.second);
        else
            merged.push_back(w);
    }
    return merged;
}

Resolution
resolveFaults(const std::vector<FaultSpec> &faults,
              const ResolveContext &ctx)
{
    Resolution out;
    for (const FaultSpec &spec : faults) {
        const FaultPtr flt = FaultRegistry::instance().make(spec);
        flt->resolve(ctx, out);
    }
    // Timeline order is (activation time, declaration order) — a
    // stable sort keeps same-tick activations in the order the config
    // declared them, so the log is deterministic by construction.
    std::stable_sort(out.timeline.begin(), out.timeline.end(),
                     [](const Activation &a, const Activation &b) {
                         return a.at < b.at;
                     });
    return out;
}

FaultScheduler::FaultScheduler(const Resolution &resolution, Hooks hooks)
    : resolution_(resolution), hooks_(std::move(hooks))
{
    RV_ASSERT(hooks_.setNodeFailed != nullptr,
              "fault scheduler needs a crash hook");
    RV_ASSERT(hooks_.stallNi != nullptr,
              "fault scheduler needs an NI-stall hook");
    RV_ASSERT(hooks_.setCoreSlowdown != nullptr,
              "fault scheduler needs a slow-core hook");
}

void
FaultScheduler::arm(
    const std::function<sim::EventDomain &(std::uint32_t)> &domainOf)
{
    RV_ASSERT(!armed_, "fault scheduler armed twice");
    armed_ = true;
    for (const Activation &a : resolution_.timeline) {
        if (!a.timed)
            continue;
        const auto node = static_cast<std::uint32_t>(a.node);
        sim::EventDomain &dom = domainOf(node);
        RV_ASSERT(dom.now() == 0,
                  "fault scheduler must arm before the run starts");
        if (a.kind == "crash") {
            const auto &fail = hooks_.setNodeFailed;
            dom.schedule(a.at, [fail, node] { fail(node, true); });
            if (a.until > 0) {
                dom.schedule(a.until,
                             [fail, node] { fail(node, false); });
            }
        } else if (a.kind == "ni-stall") {
            const auto &stall = hooks_.stallNi;
            const sim::Tick until = a.until;
            dom.schedule(a.at,
                         [stall, node, until] { stall(node, until); });
        } else if (a.kind == "slow-core") {
            const auto &slow = hooks_.setCoreSlowdown;
            const auto core = static_cast<std::uint32_t>(a.core);
            const double factor = a.factor;
            dom.schedule(a.at, [slow, node, core, factor] {
                slow(node, core, factor);
            });
            RV_ASSERT(a.until > 0, "slow-core window must end");
            dom.schedule(a.until, [slow, node, core] {
                slow(node, core, 1.0);
            });
        } else {
            sim::panic("unknown timed fault kind '" + a.kind + "'");
        }
    }
}

bool
RetryPolicy::active() const
{
    return maxAttempts != 0 || baseBackoff != 0 || hedgeAfter != 0;
}

void
RetryPolicy::validate(sim::Tick requestTimeout) const
{
    if (multiplier < 1.0) {
        sim::fatal(sim::strfmt(
            "retry policy: multiplier must be >= 1 (got %g)",
            multiplier));
    }
    if (jitter < 0.0 || jitter > 1.0) {
        sim::fatal(sim::strfmt(
            "retry policy: jitter must be in [0, 1] (got %g)", jitter));
    }
    if (active() && requestTimeout == 0) {
        sim::fatal("retry policy: retries and hedges trigger off the "
                   "timeout sweep — an active policy requires a "
                   "cluster request timeout > 0");
    }
    if (hedgeAfter > 0 && hedgeAfter >= requestTimeout) {
        sim::fatal(sim::strfmt(
            "retry policy: hedgeAfter (%llu) must be below the request "
            "timeout (%llu) — a hedge fired at or past the timeout "
            "can never win",
            static_cast<unsigned long long>(hedgeAfter),
            static_cast<unsigned long long>(requestTimeout)));
    }
}

} // namespace rpcvalet::fault
