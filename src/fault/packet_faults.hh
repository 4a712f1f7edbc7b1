/**
 * @file
 * Packet-level fault injection: the net::PacketPerturber that applies
 * a resolution's loss / delay / corruption configs to every packet at
 * the fabric boundary.
 *
 * Determinism under parallel DES: perturb() runs on the posting
 * domain's thread, so the perturber keeps one independent Rng lane per
 * domain (stream 0xFA00 + domain id). A domain's draw sequence then
 * depends only on its own deterministic event order — never on worker
 * count or cross-domain interleaving — which keeps faulted parallel
 * runs bit-identical across 1/2/4 workers.
 */

#ifndef RPCVALET_FAULT_PACKET_FAULTS_HH
#define RPCVALET_FAULT_PACKET_FAULTS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/fault.hh"
#include "net/fabric.hh"
#include "sim/rng.hh"

namespace rpcvalet::fault {

/** Applies packet-level fault configs at the fabric boundary. */
class PacketFaults : public net::PacketPerturber
{
  public:
    /**
     * @param configs     Packet fault configs (Resolution::packet).
     * @param numDomains  Event domains in the run (1 if sequential).
     * @param seed        Run seed; lanes use streams 0xFA00 + domain.
     * @param numServers  Server node count (servers occupy node ids
     *                    [0, numServers)), for reply detection.
     */
    PacketFaults(std::vector<PacketFaultConfig> configs,
                 std::uint32_t numDomains, std::uint64_t seed,
                 std::uint32_t numServers);

    Verdict perturb(proto::Packet &pkt, sim::DomainId domain,
                    sim::Tick now) override;

    /** Send packets dropped, summed over lanes (post-run only). */
    std::uint64_t dropped() const;

    /** Packets that paid extra latency, summed over lanes. */
    std::uint64_t delayed() const;

    /** Reply payloads corrupted, summed over lanes. */
    std::uint64_t corrupted() const;

  private:
    /** Per-domain state; lane i is touched only by domain i's owner
     *  thread during a run (accessors sum after the run ends). */
    struct Lane
    {
        sim::Rng rng;
        std::uint64_t dropped = 0;
        std::uint64_t delayed = 0;
        std::uint64_t corrupted = 0;
        /** Latest (post time + extra latency) per (src, dst) flow.
         *  Delay jitter is clamped against it so injected delay never
         *  reorders a flow — the wire protocol (reply-then-replenish,
         *  block streams) assumes the fabric's per-flow FIFO order.
         *  A flow is always posted from one domain, so this map stays
         *  lane-private like the Rng. */
        std::unordered_map<std::uint64_t, sim::Tick> flowMark;

        explicit Lane(sim::Rng rng_) : rng(rng_) {}
    };

    std::vector<PacketFaultConfig> configs_;
    std::vector<Lane> lanes_;
    std::uint32_t numServers_;
    /** Any Delay config present (enables the per-flow FIFO clamp). */
    bool hasDelay_ = false;
};

} // namespace rpcvalet::fault

#endif // RPCVALET_FAULT_PACKET_FAULTS_HH
