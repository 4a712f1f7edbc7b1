#include "fault/packet_faults.hh"

#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::fault {

namespace {

/** Send packets only — the credit-return (Replenish) and rendezvous
 *  pull (RemoteRead / ReadResponse) traffic models reliable one-sided
 *  operations, and dropping a Replenish would leak a slot credit the
 *  protocol can never recover (the drop itself already leaks the
 *  request's slot, which is the interesting failure). */
bool
lossEligible(const proto::Packet &pkt)
{
    return pkt.hdr.op == proto::OpType::Send;
}

} // namespace

PacketFaults::PacketFaults(std::vector<PacketFaultConfig> configs,
                           std::uint32_t numDomains, std::uint64_t seed,
                           std::uint32_t numServers)
    : configs_(std::move(configs)), numServers_(numServers)
{
    RV_ASSERT(numDomains >= 1, "packet faults need at least one domain");
    lanes_.reserve(numDomains);
    for (std::uint32_t d = 0; d < numDomains; ++d)
        lanes_.emplace_back(sim::Rng(seed, 0xFA00 + d));
    for (const PacketFaultConfig &cfg : configs_)
        hasDelay_ |= cfg.kind == PacketFaultConfig::Kind::Delay;
}

net::PacketPerturber::Verdict
PacketFaults::perturb(proto::Packet &pkt, sim::DomainId domain,
                      sim::Tick now)
{
    (void)now;
    RV_ASSERT(domain < lanes_.size(), "packet fault lane out of range");
    Lane &lane = lanes_[domain];
    Verdict verdict;
    for (const PacketFaultConfig &cfg : configs_) {
        switch (cfg.kind) {
          case PacketFaultConfig::Kind::Loss: {
            if (!lossEligible(pkt))
                break;
            if (cfg.edge >= 0) {
                const auto victim = static_cast<proto::NodeId>(cfg.edge);
                if (pkt.hdr.src != victim && pkt.hdr.dst != victim)
                    break;
            }
            if (lane.rng.uniform() < cfg.p) {
                ++lane.dropped;
                verdict.drop = true;
                // The packet is gone; later configs never see it.
                return verdict;
            }
            break;
          }
          case PacketFaultConfig::Kind::Delay: {
            sim::Tick extra = cfg.add;
            if (cfg.jitter > 0) {
                const double span = static_cast<double>(cfg.jitter);
                const double draw =
                    cfg.uniformJitter
                        ? lane.rng.uniform() * span
                        : lane.rng.exponential(span);
                extra += static_cast<sim::Tick>(draw);
            }
            verdict.extraLatency += extra;
            ++lane.delayed;
            break;
          }
          case PacketFaultConfig::Kind::Corrupt: {
            // Replies only: a Send heading away from the server range
            // carries response payload the client will verify.
            const bool toServer = pkt.hdr.dst < numServers_;
            if (pkt.hdr.op != proto::OpType::Send || toServer ||
                pkt.payload.empty())
                break;
            if (lane.rng.uniform() < cfg.p) {
                pkt.payload[0] ^= 0x01;
                ++lane.corrupted;
            }
            break;
          }
        }
    }
    if (hasDelay_ && !verdict.drop) {
        // Per-flow FIFO clamp: the constant-latency fabric delivers a
        // flow's packets in posting order, and the protocol depends on
        // it (a replenish must not overtake its reply, or the client
        // reuses the slot while the old reply is still in flight). An
        // injected delay shifts a flow but may never reorder it, so a
        // packet whose jittered departure would land before the flow's
        // previous one is held back to that mark.
        const std::uint64_t flow =
            (static_cast<std::uint64_t>(pkt.hdr.src) << 32) |
            pkt.hdr.dst;
        sim::Tick &mark = lane.flowMark[flow];
        const sim::Tick depart = now + verdict.extraLatency;
        if (depart < mark)
            verdict.extraLatency = mark - now;
        else
            mark = depart;
    }
    return verdict;
}

std::uint64_t
PacketFaults::dropped() const
{
    std::uint64_t total = 0;
    for (const Lane &lane : lanes_)
        total += lane.dropped;
    return total;
}

std::uint64_t
PacketFaults::delayed() const
{
    std::uint64_t total = 0;
    for (const Lane &lane : lanes_)
        total += lane.delayed;
    return total;
}

std::uint64_t
PacketFaults::corrupted() const
{
    std::uint64_t total = 0;
    for (const Lane &lane : lanes_)
        total += lane.corrupted;
    return total;
}

} // namespace rpcvalet::fault
