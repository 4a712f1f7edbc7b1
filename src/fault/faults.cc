/**
 * @file
 * Built-in fault models. Each registers a factory that validates the
 * spec's own parameters eagerly (bad probabilities and missing keys
 * die at parse/lookup time, before a run exists); cluster-shape checks
 * (node/core ranges) run in resolve().
 */

#include <utility>

#include "fault/fault.hh"
#include "sim/logging.hh"

namespace rpcvalet::fault {

namespace {

/** fatal() unless @p spec carries @p key. */
void
requireKey(const FaultSpec &spec, const char *key)
{
    if (!spec.has(key)) {
        sim::fatal(sim::strfmt("%s fault requires a %s= parameter",
                               spec.name.c_str(), key));
    }
}

/** Probability parameter in [0, 1] (fatal otherwise). */
double
probParam(const FaultSpec &spec, const char *key)
{
    requireKey(spec, key);
    const double p = spec.doubleParam(key, 0.0);
    if (p < 0.0 || p > 1.0) {
        sim::fatal(sim::strfmt("%s fault: %s must be in [0, 1] (got %g)",
                               spec.name.c_str(), key, p));
    }
    return p;
}

/** fatal() when a victim node index falls outside the cluster. */
void
checkNode(const FaultSpec &spec, std::uint64_t node,
          const ResolveContext &ctx)
{
    if (node >= ctx.numNodes) {
        sim::fatal(sim::strfmt(
            "fault '%s': node %llu is out of range for %u server nodes",
            spec.toString().c_str(),
            static_cast<unsigned long long>(node), ctx.numNodes));
    }
}

/** crash:node=,at=[,recover_after=] — the node drops every packet
 *  (requests already queued inside it are lost) until recover_after
 *  elapses, or forever when none is given. Only the client's request
 *  timeout detects the dead node, so the experiment layer requires
 *  one. */
class CrashFault : public Fault
{
  public:
    explicit CrashFault(const FaultSpec &spec) : spec_(spec)
    {
        spec.expectKeys({"node", "at", "recover_after"});
        requireKey(spec, "node");
        requireKey(spec, "at");
        node_ = spec.uintParam("node", 0);
        at_ = spec.tickParam("at", 0);
        recoverAfter_ = spec.tickParam("recover_after", 0);
    }

    std::string name() const override { return spec_.toString(); }

    void
    resolve(const ResolveContext &ctx, Resolution &out) const override
    {
        checkNode(spec_, node_, ctx);
        Activation a;
        a.spec = spec_.toString();
        a.kind = "crash";
        a.node = static_cast<std::int32_t>(node_);
        a.at = at_;
        a.until = recoverAfter_ > 0 ? at_ + recoverAfter_ : 0;
        a.timed = true;
        out.timeline.push_back(std::move(a));
    }

  private:
    FaultSpec spec_;
    std::uint64_t node_ = 0;
    sim::Tick at_ = 0;
    sim::Tick recoverAfter_ = 0;
};

/** packet-loss:p=[,edge=] — every Send packet (requests and replies;
 *  credit-return and rendezvous-read traffic models reliable one-sided
 *  ops and is never dropped) is lost with probability p. With edge=,
 *  only packets to or from that server index are eligible. */
class PacketLossFault : public Fault
{
  public:
    explicit PacketLossFault(const FaultSpec &spec) : spec_(spec)
    {
        spec.expectKeys({"p", "edge"});
        p_ = probParam(spec, "p");
        hasEdge_ = spec.has("edge");
        edge_ = spec.uintParam("edge", 0);
    }

    std::string name() const override { return spec_.toString(); }

    void
    resolve(const ResolveContext &ctx, Resolution &out) const override
    {
        if (hasEdge_)
            checkNode(spec_, edge_, ctx);
        PacketFaultConfig pf;
        pf.kind = PacketFaultConfig::Kind::Loss;
        pf.spec = spec_.toString();
        pf.p = p_;
        pf.edge = hasEdge_ ? static_cast<std::int32_t>(edge_) : -1;
        out.packet.push_back(pf);
        Activation a;
        a.spec = spec_.toString();
        a.kind = "packet-loss";
        a.node = pf.edge;
        out.timeline.push_back(std::move(a));
    }

  private:
    FaultSpec spec_;
    double p_ = 0.0;
    bool hasEdge_ = false;
    std::uint64_t edge_ = 0;
};

/** packet-delay:add=,jitter=[,dist=] — every packet pays add extra
 *  fabric latency, plus a per-packet jitter draw: uniform in
 *  [0, jitter) (dist=uniform, the default) or exponential with mean
 *  jitter (dist=exp). */
class PacketDelayFault : public Fault
{
  public:
    explicit PacketDelayFault(const FaultSpec &spec) : spec_(spec)
    {
        spec.expectKeys({"add", "jitter", "dist"});
        requireKey(spec, "add");
        add_ = spec.tickParam("add", 0);
        jitter_ = spec.tickParam("jitter", 0);
        const std::string dist =
            spec.has("dist") ? spec.params.at("dist") : "uniform";
        if (dist == "uniform") {
            uniform_ = true;
        } else if (dist == "exp") {
            uniform_ = false;
        } else {
            sim::fatal(sim::strfmt(
                "packet-delay fault: dist must be uniform or exp "
                "(got '%s')",
                dist.c_str()));
        }
        if (add_ == 0 && jitter_ == 0) {
            sim::fatal("packet-delay fault: add and jitter are both 0 "
                       "— the fault would do nothing");
        }
    }

    std::string name() const override { return spec_.toString(); }

    void
    resolve(const ResolveContext &ctx, Resolution &out) const override
    {
        (void)ctx;
        PacketFaultConfig pf;
        pf.kind = PacketFaultConfig::Kind::Delay;
        pf.spec = spec_.toString();
        pf.add = add_;
        pf.jitter = jitter_;
        pf.uniformJitter = uniform_;
        out.packet.push_back(pf);
        Activation a;
        a.spec = spec_.toString();
        a.kind = "packet-delay";
        out.timeline.push_back(std::move(a));
    }

  private:
    FaultSpec spec_;
    sim::Tick add_ = 0;
    sim::Tick jitter_ = 0;
    bool uniform_ = true;
};

/** packet-corrupt:p= — a reply packet's payload byte flips with
 *  probability p. Requests are left intact (a corrupted request would
 *  exercise the server's wire parser, not the detection path); the
 *  client's application-level verification catches the flip, counted
 *  as RunStats.fault.corruptionsDetected. */
class PacketCorruptFault : public Fault
{
  public:
    explicit PacketCorruptFault(const FaultSpec &spec) : spec_(spec)
    {
        spec.expectKeys({"p"});
        p_ = probParam(spec, "p");
    }

    std::string name() const override { return spec_.toString(); }

    void
    resolve(const ResolveContext &ctx, Resolution &out) const override
    {
        (void)ctx;
        PacketFaultConfig pf;
        pf.kind = PacketFaultConfig::Kind::Corrupt;
        pf.spec = spec_.toString();
        pf.p = p_;
        out.packet.push_back(pf);
        Activation a;
        a.spec = spec_.toString();
        a.kind = "packet-corrupt";
        out.timeline.push_back(std::move(a));
    }

  private:
    FaultSpec spec_;
    double p_ = 0.0;
};

/** ni-stall:node=,at=,for= — the node's NI backends stop draining
 *  their ingress pipelines for the window; arriving packets queue and
 *  drain in order when the stall lifts (a microcode hiccup, not a
 *  crash: nothing is lost). */
class NiStallFault : public Fault
{
  public:
    explicit NiStallFault(const FaultSpec &spec) : spec_(spec)
    {
        spec.expectKeys({"node", "at", "for"});
        requireKey(spec, "node");
        requireKey(spec, "at");
        requireKey(spec, "for");
        node_ = spec.uintParam("node", 0);
        at_ = spec.tickParam("at", 0);
        for_ = spec.tickParam("for", 0);
        if (for_ == 0) {
            sim::fatal("ni-stall fault: for= must be > 0 (a zero-"
                       "length stall would do nothing)");
        }
    }

    std::string name() const override { return spec_.toString(); }

    void
    resolve(const ResolveContext &ctx, Resolution &out) const override
    {
        checkNode(spec_, node_, ctx);
        Activation a;
        a.spec = spec_.toString();
        a.kind = "ni-stall";
        a.node = static_cast<std::int32_t>(node_);
        a.at = at_;
        a.until = at_ + for_;
        a.timed = true;
        out.timeline.push_back(std::move(a));
    }

  private:
    FaultSpec spec_;
    std::uint64_t node_ = 0;
    sim::Tick at_ = 0;
    sim::Tick for_ = 0;
};

/** slow-core:node=,core=,factor=,at=,for= — one core's processing
 *  time is multiplied by factor for the window (a straggler: thermal
 *  throttling, a noisy neighbor). Dispatch-policy load signals see the
 *  slowdown; the straggler's effect on the tail is the experiment. */
class SlowCoreFault : public Fault
{
  public:
    explicit SlowCoreFault(const FaultSpec &spec) : spec_(spec)
    {
        spec.expectKeys({"node", "core", "factor", "at", "for"});
        requireKey(spec, "node");
        requireKey(spec, "core");
        requireKey(spec, "factor");
        requireKey(spec, "at");
        requireKey(spec, "for");
        node_ = spec.uintParam("node", 0);
        core_ = spec.uintParam("core", 0);
        factor_ = spec.doubleParam("factor", 1.0);
        at_ = spec.tickParam("at", 0);
        for_ = spec.tickParam("for", 0);
        if (factor_ < 1.0) {
            sim::fatal(sim::strfmt(
                "slow-core fault: factor must be >= 1 (got %g) — "
                "factors below 1 would speed the core up",
                factor_));
        }
        if (for_ == 0) {
            sim::fatal("slow-core fault: for= must be > 0 (a zero-"
                       "length slowdown would do nothing)");
        }
    }

    std::string name() const override { return spec_.toString(); }

    void
    resolve(const ResolveContext &ctx, Resolution &out) const override
    {
        checkNode(spec_, node_, ctx);
        if (core_ >= ctx.coresPerNode) {
            sim::fatal(sim::strfmt(
                "fault '%s': core %llu is out of range for %u cores "
                "per node",
                spec_.toString().c_str(),
                static_cast<unsigned long long>(core_),
                ctx.coresPerNode));
        }
        Activation a;
        a.spec = spec_.toString();
        a.kind = "slow-core";
        a.node = static_cast<std::int32_t>(node_);
        a.core = static_cast<std::int32_t>(core_);
        a.factor = factor_;
        a.at = at_;
        a.until = at_ + for_;
        a.timed = true;
        out.timeline.push_back(std::move(a));
    }

  private:
    FaultSpec spec_;
    std::uint64_t node_ = 0;
    std::uint64_t core_ = 0;
    double factor_ = 1.0;
    sim::Tick at_ = 0;
    sim::Tick for_ = 0;
};

const FaultRegistrar crashReg("crash", [](const FaultSpec &spec) {
    return FaultPtr(new CrashFault(spec));
});

const FaultRegistrar lossReg("packet-loss", [](const FaultSpec &spec) {
    return FaultPtr(new PacketLossFault(spec));
});

const FaultRegistrar delayReg("packet-delay", [](const FaultSpec &spec) {
    return FaultPtr(new PacketDelayFault(spec));
});

const FaultRegistrar corruptReg("packet-corrupt",
                                [](const FaultSpec &spec) {
                                    return FaultPtr(
                                        new PacketCorruptFault(spec));
                                });

const FaultRegistrar stallReg("ni-stall", [](const FaultSpec &spec) {
    return FaultPtr(new NiStallFault(spec));
});

const FaultRegistrar slowReg("slow-core", [](const FaultSpec &spec) {
    return FaultPtr(new SlowCoreFault(spec));
});

} // namespace

void
FaultAxis::linkBuiltins()
{
    // The registrars above do the work; this function only anchors the
    // archive member (see FaultRegistry::instance).
}

} // namespace rpcvalet::fault
