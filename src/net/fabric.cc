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
    mailboxes_.resize(2 * domains_.size() * domains_.size());
}

Fabric::Edge &
Fabric::edge(unsigned bank, sim::DomainId src, sim::DomainId dst)
{
    const std::size_t n = domains_.size();
    return mailboxes_[(bank * n + src) * n + dst];
}

void
Fabric::connect(proto::NodeId node, Sink sink)
{
    RV_ASSERT(sink != nullptr, "null fabric sink");
    if (node >= receivers_.size())
        receivers_.resize(static_cast<std::size_t>(node) + 1);
    if (receivers_[node] != nullptr) {
        sim::fatal(sim::strfmt(
            "fabric: node %u is already connected (duplicate "
            "registration would silently drop the first sink's "
            "traffic)",
            node));
    }
    receivers_[node] = std::move(sink);
}

void
Fabric::connect(proto::NodeId node, PacketSink sink)
{
    RV_ASSERT(sink != nullptr, "null fabric sink");
    connect(node, [sink = std::move(sink),
                   pkt = proto::Packet{}](proto::Train &train) mutable {
        for (std::uint32_t i = 0; i < train.blocks(); ++i) {
            proto::trainPacket(train, i, pkt);
            sink(pkt);
        }
    });
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
Fabric::send(const proto::Packet &pkt)
{
    if (perturber_ == nullptr) {
        post(pkt, 0);
        return;
    }
    proto::Packet copy = pkt;
    perturbAndPost(copy);
}

void
Fabric::send(proto::Train &train)
{
    if (perturber_ != nullptr) {
        proto::Packet pkt;
        for (std::uint32_t i = 0; i < train.blocks(); ++i) {
            proto::trainPacket(train, i, pkt);
            perturbAndPost(pkt);
        }
        return;
    }
    const sim::DomainId src = domainOf(train.hdr.src);
    const sim::DomainId dst = domainOf(train.hdr.dst);
    DomainState &s = *domains_[src];
    if (src != dst) {
        const sim::Tick when = s.sim->now() + latency_;
        for (std::uint32_t i = 0; i < train.blocks(); ++i)
            proto::trainPacket(train, i, postMail(src, dst, when));
        return;
    }
    deliverAt(dst, train, s.sim->now() + latency_);
}

void
Fabric::send(proto::Train &train, sim::Tick depart)
{
    const sim::DomainId src = domainOf(train.hdr.src);
    DomainState &s = *domains_[src];
    RV_ASSERT(depart >= s.sim->now(), "train departs in the past");
    if (perturber_ == nullptr && src == domainOf(train.hdr.dst)) {
        deliverAt(src, train, depart + latency_);
        return;
    }
    DepartEvent *ev = s.departPool.acquire();
    ev->fabric = this;
    ev->dom = src;
    ev->train.hdr = train.hdr;
    ev->train.bytes.swap(train.bytes);
    s.sim->scheduleAt(*ev, depart);
}

void
Fabric::deliverAt(sim::DomainId dom, proto::Train &train, sim::Tick when)
{
    DeliverEvent *ev = domains_[dom]->pool.acquire();
    ev->fabric = this;
    ev->dom = dom;
    ev->train.hdr = train.hdr;
    ev->train.bytes.swap(train.bytes);
    domains_[dom]->sim->scheduleAt(*ev, when);
}

void
Fabric::perturbAndPost(proto::Packet &pkt)
{
    // Runs on the posting domain's thread; additive-only latency
    // keeps the window invariant of postMail() intact.
    const sim::DomainId src = domainOf(pkt.hdr.src);
    const PacketPerturber::Verdict verdict =
        perturber_->perturb(pkt, src, domains_[src]->sim->now());
    if (!verdict.drop)
        post(pkt, verdict.extraLatency);
}

void
Fabric::post(const proto::Packet &pkt, sim::Tick extra)
{
    const sim::DomainId src = domainOf(pkt.hdr.src);
    const sim::DomainId dst = domainOf(pkt.hdr.dst);
    DomainState &s = *domains_[src];
    if (src != dst) {
        postMail(src, dst, s.sim->now() + latency_ + extra) = pkt;
        return;
    }
    // Domain-local traffic never crosses a window boundary.
    DeliverEvent *ev = s.pool.acquire();
    ev->fabric = this;
    ev->dom = dst;
    proto::packetTrain(pkt, ev->train);
    s.sim->schedule(*ev, latency_ + extra);
}

proto::Packet &
Fabric::postMail(sim::DomainId src, sim::DomainId dst, sim::Tick when)
{
    RV_ASSERT(when >= windowEnd_,
              "cross-domain packet due inside the executing window "
              "(window = link latency invariant violated)");
    std::vector<Mail> &box = edge(openBank_, src, dst).mail;
    Mail &mail = box.emplace_back();
    mail.when = when;
    mail.src = src;
    mail.seq = box.size() - 1;
    ++domains_[src]->posted;
    return mail.pkt;
}

void
Fabric::closeWindow(sim::Tick nextWindowEnd)
{
    RV_ASSERT(domains_.size() > 1, "closeWindow on a one-domain fabric");
    RV_ASSERT(nextWindowEnd > windowEnd_, "window must advance");
    windowEnd_ = nextWindowEnd;
    openBank_ ^= 1u;
}

void
Fabric::drainInbox(sim::DomainId dst)
{
    RV_ASSERT(dst < domains_.size(), "domain id out of range");
    DomainState &d = *domains_[dst];
    std::vector<Mail> &mail = d.drainScratch;
    const unsigned closed = openBank_ ^ 1u;
    for (sim::DomainId src = 0; src < domains_.size(); ++src) {
        std::vector<Mail> &box = edge(closed, src, dst).mail;
        for (Mail &m : box)
            mail.push_back(std::move(m));
        box.clear();
    }
    if (mail.empty())
        return;

    // Deterministic delivery order: by time, then posting domain,
    // then posting order — independent of worker count and
    // scheduling.
    std::sort(mail.begin(), mail.end(), [](const Mail &a, const Mail &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.src != b.src)
            return a.src < b.src;
        return a.seq < b.seq;
    });

    // Coalesce same-tick arrivals into one batched ingress event each.
    std::size_t i = 0;
    while (i < mail.size()) {
        std::size_t j = i + 1;
        while (j < mail.size() && mail[j].when == mail[i].when)
            ++j;
        BatchDeliverEvent *ev = d.batchPool.acquire();
        ev->fabric = this;
        ev->dom = dst;
        ev->pkts.reserve(j - i);
        for (std::size_t k = i; k < j; ++k)
            ev->pkts.push_back(std::move(mail[k].pkt));
        d.sim->scheduleAt(*ev, mail[i].when);
        i = j;
    }
    mail.clear();
}

std::uint64_t
Fabric::parkedMail() const
{
    const std::size_t n = domains_.size();
    const std::size_t closed = (openBank_ ^ 1u) * n * n;
    std::uint64_t total = 0;
    for (std::size_t e = closed; e < closed + n * n; ++e)
        total += mailboxes_[e].mail.size();
    return total;
}

std::uint64_t
Fabric::crossDomainMail() const
{
    std::uint64_t total = 0;
    for (const auto &d : domains_)
        total += d->posted;
    return total;
}

void
Fabric::DeliverEvent::process()
{
    // Deliver straight from the event, then recycle it: a sink that
    // sends again draws another event, so the train stays intact. The
    // buffer stays with the event (whatever the sink swapped in) and
    // goes back to the next sender by swap.
    fabric->deliver(dom, train);
    fabric->domains_[dom]->pool.release(this);
}

void
Fabric::DepartEvent::process()
{
    // The immediate send, run at the departure tick; the spare buffer
    // it leaves stays with the event for the next departure.
    fabric->send(train);
    fabric->domains_[dom]->departPool.release(this);
}

void
Fabric::BatchDeliverEvent::process()
{
    // A sink that sends again draws another event, so the packet
    // vector is stable while it delivers, and clearing it keeps its
    // capacity for the next batch.
    for (const proto::Packet &p : pkts) {
        proto::packetTrain(p, train);
        fabric->deliver(dom, train);
    }
    pkts.clear();
    fabric->domains_[dom]->batchPool.release(this);
}

void
Fabric::deliver(sim::DomainId dom, proto::Train &train)
{
    const proto::PacketHeader &hdr = train.hdr;
    domains_[dom]->delivered += train.blocks();
    if (hdr.dst >= receivers_.size() || receivers_[hdr.dst] == nullptr) {
        sim::fatal(sim::strfmt(
            "fabric: %s packet from node %u addressed to unconnected "
            "node %u (no sink registered for it)",
            proto::opName(hdr.op).c_str(), hdr.src, hdr.dst));
    }
    receivers_[hdr.dst](train);
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
