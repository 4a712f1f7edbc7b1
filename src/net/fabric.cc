#include "net/fabric.hh"

#include <algorithm>
#include <utility>

#include "proto/packet.hh"
#include "sim/logging.hh"

namespace rpcvalet::net {

Fabric::Fabric(std::vector<sim::EventDomain *> domains, sim::Tick latency)
    : latency_(latency), windowEnd_(latency)
{
    RV_ASSERT(!domains.empty(), "fabric needs at least one domain");
    if (domains.size() > 1 && latency == 0) {
        sim::fatal("fabric: link latency 0 violates conservative "
                   "synchronization — the window of a multi-domain run "
                   "is the link latency, so a packet sent inside a "
                   "window would be due inside that same window");
    }
    for (std::size_t i = 0; i < domains.size(); ++i) {
        RV_ASSERT(domains[i] != nullptr, "null event domain");
        RV_ASSERT(domains[i]->id() == i,
                  "fabric domain table must be indexed by domain id");
        auto state = std::make_unique<DomainState>();
        state->sim = domains[i];
        domains_.push_back(std::move(state));
    }
    mailboxes_.resize(domains_.size() * domains_.size());
}

void
Fabric::connect(proto::NodeId node, Sink sink)
{
    RV_ASSERT(sink != nullptr, "null fabric sink");
    if (node >= sinks_.size())
        sinks_.resize(static_cast<std::size_t>(node) + 1);
    if (sinks_[node] != nullptr) {
        sim::fatal(sim::strfmt(
            "fabric: node %u is already connected (duplicate "
            "registration would silently drop the first sink's "
            "traffic)",
            node));
    }
    sinks_[node] = std::move(sink);
}

void
Fabric::connectDefault(Sink sink)
{
    RV_ASSERT(sink != nullptr, "null fabric sink");
    if (defaultSink_ != nullptr) {
        sim::fatal("fabric: a default sink is already connected "
                   "(duplicate registration)");
    }
    defaultSink_ = std::move(sink);
}

void
Fabric::assignNode(proto::NodeId node, sim::DomainId domain)
{
    RV_ASSERT(domains_.size() > 1, "assignNode on a one-domain fabric");
    RV_ASSERT(domain < domains_.size(), "domain id out of range");
    if (node >= nodeDomain_.size())
        nodeDomain_.resize(static_cast<std::size_t>(node) + 1, kUnassigned);
    if (nodeDomain_[node] != kUnassigned) {
        sim::fatal(sim::strfmt(
            "fabric: node %u is already assigned to a domain", node));
    }
    nodeDomain_[node] = domain;
}

sim::DomainId
Fabric::domainOf(proto::NodeId node) const
{
    if (node < nodeDomain_.size() && nodeDomain_[node] != kUnassigned)
        return nodeDomain_[node];
    return 0;
}

void
Fabric::setPerturber(PacketPerturber *perturber)
{
    perturber_ = perturber;
}

void
Fabric::send(proto::Packet pkt)
{
    const sim::DomainId src = domainOf(pkt.hdr.src);
    sim::Tick extra = 0;
    if (perturber_ != nullptr) {
        // Runs on the posting domain's thread; additive-only latency
        // keeps the window invariant below intact.
        const PacketPerturber::Verdict verdict = perturber_->perturb(
            pkt, src, domains_[src]->sim->now());
        if (verdict.drop)
            return;
        extra = verdict.extraLatency;
    }

    const sim::DomainId dst = domainOf(pkt.hdr.dst);
    DomainState &s = *domains_[src];
    if (src == dst) {
        // Domain-local traffic never crosses a window boundary.
        DeliverEvent *ev = s.pool.acquire();
        ev->fabric = this;
        ev->dom = dst;
        ev->pkt = std::move(pkt);
        s.sim->schedule(*ev, latency_ + extra);
        return;
    }

    const sim::Tick when = s.sim->now() + latency_ + extra;
    RV_ASSERT(when >= windowEnd_,
              "cross-domain packet due inside the executing window "
              "(window = link latency invariant violated)");
    auto &edge = mailboxes_[src * domains_.size() + dst];
    Mail mail;
    mail.pkt = std::move(pkt);
    mail.when = when;
    mail.src = src;
    mail.dst = dst;
    mail.seq = edge.size();
    edge.push_back(std::move(mail));
}

void
Fabric::exchangeWindow(sim::Tick nextWindowEnd)
{
    RV_ASSERT(domains_.size() > 1, "exchangeWindow on a one-domain fabric");
    RV_ASSERT(nextWindowEnd > windowEnd_, "window must advance");

    drainScratch_.clear();
    for (auto &edge : mailboxes_) {
        for (Mail &m : edge)
            drainScratch_.push_back(std::move(m));
        edge.clear();
    }
    windowEnd_ = nextWindowEnd;
    if (drainScratch_.empty())
        return;

    // Deterministic delivery order per destination wheel: by time,
    // then posting domain, then posting order — independent of worker
    // count and scheduling.
    std::sort(drainScratch_.begin(), drainScratch_.end(),
              [](const Mail &a, const Mail &b) {
                  if (a.dst != b.dst)
                      return a.dst < b.dst;
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });

    // Coalesce same-(domain, tick) arrivals into one batched ingress
    // event each.
    std::size_t i = 0;
    while (i < drainScratch_.size()) {
        std::size_t j = i + 1;
        while (j < drainScratch_.size() &&
               drainScratch_[j].dst == drainScratch_[i].dst &&
               drainScratch_[j].when == drainScratch_[i].when)
            ++j;
        DomainState &d = *domains_[drainScratch_[i].dst];
        BatchDeliverEvent *ev = d.batchPool.acquire();
        ev->fabric = this;
        ev->dom = drainScratch_[i].dst;
        ev->pkts.reserve(j - i);
        for (std::size_t k = i; k < j; ++k)
            ev->pkts.push_back(std::move(drainScratch_[k].pkt));
        d.sim->scheduleAt(*ev, drainScratch_[i].when);
        i = j;
    }
}

void
Fabric::DeliverEvent::process()
{
    // Deliver straight from the event, then recycle it: a sink that
    // sends again draws another event, so the packet stays intact.
    fabric->deliver(dom, pkt);
    fabric->domains_[dom]->pool.release(this);
}

void
Fabric::BatchDeliverEvent::process()
{
    // Batch events are only acquired at the barrier (never from a
    // sink), so the packet vector is stable while it delivers, and
    // clearing it keeps its capacity for the next batch.
    for (const proto::Packet &p : pkts)
        fabric->deliver(dom, p);
    pkts.clear();
    fabric->domains_[dom]->batchPool.release(this);
}

void
Fabric::deliver(sim::DomainId dom, const proto::Packet &pkt)
{
    ++domains_[dom]->delivered;
    if (pkt.hdr.dst < sinks_.size() && sinks_[pkt.hdr.dst] != nullptr) {
        sinks_[pkt.hdr.dst](pkt);
        return;
    }
    if (defaultSink_ == nullptr) {
        sim::fatal(sim::strfmt(
            "fabric: %s packet from node %u addressed to unconnected "
            "node %u (no sink registered for it and no default sink)",
            proto::opName(pkt.hdr.op).c_str(), pkt.hdr.src,
            pkt.hdr.dst));
    }
    defaultSink_(pkt);
}

std::uint64_t
Fabric::delivered() const
{
    std::uint64_t total = 0;
    for (const auto &d : domains_)
        total += d->delivered;
    return total;
}

} // namespace rpcvalet::net
