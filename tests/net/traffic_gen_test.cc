/**
 * @file
 * Unit tests for the cluster traffic generator, using a miniature
 * in-test echo server as the node under test: the happy path, flow
 * control, and the timeout recovery paths (parked slot credits, slot
 * reuse after a timeout, stale replies, conservation after drain).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "app/synthetic_app.hh"
#include "net/fabric.hh"
#include "net/traffic_gen.hh"
#include "sim/domain.hh"

namespace {

using namespace rpcvalet;
using net::Fabric;
using net::TrafficGenerator;
using Simulator = sim::EventDomain;
using sim::nanoseconds;

proto::MessagingDomain
tinyDomain(std::uint32_t nodes = 4, std::uint32_t slots = 2)
{
    proto::MessagingDomain d;
    d.numNodes = nodes;
    d.slotsPerNode = slots;
    d.maxMsgBytes = 1024;
    return d;
}

/**
 * Minimal node-0 stand-in: reassembles request sends, asks the app
 * for a reply, sends it back on the mirror slot, then replenishes.
 * One chosen reply can be swallowed (its replenish still goes out,
 * as when the fabric loses the reply) or held back.
 */
class EchoServer
{
  public:
    EchoServer(Simulator &sim, Fabric &fabric, app::RpcApplication &app,
               sim::Tick service)
        : sim_(sim), fabric_(fabric), app_(app), service_(service),
          rng_(1, 0xEC0)
    {
        fabric_.connect(0, [this](proto::Packet pkt) {
            onPacket(std::move(pkt));
        });
    }

    std::uint64_t served = 0;
    /** Drop the reply to the Nth served request (1-based, 0 = none)
     *  but still send its replenish. */
    std::uint64_t swallowReply = 0;
    /** Hold the reply and replenish of the Nth served request (1-based,
     *  0 = none) back by replyDelay. */
    std::uint64_t delayReply = 0;
    sim::Tick replyDelay = 0;

  private:
    void
    onPacket(proto::Packet pkt)
    {
        // Reply-slot credits come back as replenishes; this bare-bones
        // server does not track its send slots, so just absorb them.
        if (pkt.hdr.op == proto::OpType::Replenish)
            return;
        ASSERT_EQ(pkt.hdr.op, proto::OpType::Send);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(pkt.hdr.src) << 32) |
            pkt.hdr.slot;
        auto &got = assembly_[key];
        got.push_back(pkt);
        if (got.size() < pkt.hdr.totalBlocks)
            return;
        const auto request = proto::reassemble(got);
        assembly_.erase(key);
        const auto src = pkt.hdr.src;
        const auto slot = pkt.hdr.slot;
        sim_.schedule(service_, [this, src, slot, request] {
            auto result = app_.handle(request, rng_);
            const std::uint64_t n = ++served;
            if (n == delayReply) {
                sim_.schedule(replyDelay,
                              [this, src, slot, n,
                               reply = std::move(result.reply)] {
                                  respond(src, slot, n, reply);
                              });
            } else {
                respond(src, slot, n, result.reply);
            }
        });
    }

    void
    respond(proto::NodeId src, std::uint32_t slot, std::uint64_t n,
            const std::vector<std::uint8_t> &reply)
    {
        if (n != swallowReply) {
            for (auto &p :
                 proto::packetize(proto::OpType::Send, 0, src, slot, reply))
                fabric_.send(std::move(p));
        }
        proto::Packet cred;
        cred.hdr.op = proto::OpType::Replenish;
        cred.hdr.src = 0;
        cred.hdr.dst = src;
        cred.hdr.slot = slot;
        fabric_.send(std::move(cred));
    }

    Simulator &sim_;
    Fabric &fabric_;
    app::RpcApplication &app_;
    sim::Tick service_;
    sim::Rng rng_;
    std::map<std::uint64_t, std::vector<proto::Packet>> assembly_;
};

struct Harness
{
    Simulator sim;
    Fabric fabric{sim, nanoseconds(50)};
    app::SyntheticApp app{sim::SyntheticKind::Fixed};
    proto::MessagingDomain domain;
    std::unique_ptr<EchoServer> server;
    std::unique_ptr<TrafficGenerator> tg;

    explicit Harness(double rate_rps, sim::Tick service,
                     std::uint32_t slots = 8)
        : domain(tinyDomain(4, slots))
    {
        server =
            std::make_unique<EchoServer>(sim, fabric, app, service);
        TrafficGenerator::Params p;
        p.arrivalRps = rate_rps;
        p.targetNode = 0;
        p.clientTurnaround = nanoseconds(50);
        p.seed = 3;
        tg = std::make_unique<TrafficGenerator>(sim, p, domain, app,
                                                fabric);
        fabric.connectDefault([this](proto::Packet pkt) {
            tg->receivePacket(std::move(pkt));
        });
    }
};

TEST(TrafficGen, RequestsFlowAndRepliesVerify)
{
    Harness h(1e6, nanoseconds(200));
    h.tg->start();
    h.sim.runUntil(sim::microseconds(2000.0));
    h.tg->halt();
    h.sim.run();
    EXPECT_GT(h.tg->requestsSent(), 1500u);
    EXPECT_EQ(h.tg->repliesReceived(), h.tg->requestsSent());
    EXPECT_EQ(h.tg->verificationFailures(), 0u);
    EXPECT_EQ(h.tg->inFlight(), 0u);
}

TEST(TrafficGen, PerSourceSlotsNeverExceeded)
{
    // With 1 slot per source and a long service time, each source has
    // at most one request in flight; excess arrivals defer.
    Harness h(5e6, nanoseconds(5000), /*slots=*/1);
    h.tg->start();
    h.sim.runUntil(sim::microseconds(500.0));
    h.tg->halt();
    h.sim.run();
    // 3 sources x 1 slot: in-flight never exceeded 3, and the heavy
    // offered load must have produced deferrals.
    EXPECT_GT(h.tg->flowControlDeferrals(), 0u);
    EXPECT_EQ(h.tg->repliesReceived(), h.tg->requestsSent());
    EXPECT_EQ(h.tg->verificationFailures(), 0u);
}

TEST(TrafficGen, DeferredRequestsEventuallyRun)
{
    Harness h(8e6, nanoseconds(1000), /*slots=*/1);
    h.tg->start();
    h.sim.runUntil(sim::microseconds(100.0));
    h.tg->halt();
    h.sim.run(); // drain: all deferred work completes
    EXPECT_EQ(h.tg->repliesReceived(), h.tg->requestsSent());
    EXPECT_EQ(h.tg->inFlight(), 0u);
    EXPECT_GT(h.tg->flowControlDeferrals(), 0u);
}

TEST(TrafficGen, SourcesAreSpreadAcrossCluster)
{
    // No echo server here: node 0 is a counting sink that swallows
    // requests (duplicate fabric registration is fatal, so the sink
    // must be the only node-0 receiver). Generous slot count: flow
    // control never binds even though nothing replies.
    Simulator simulator;
    Fabric fabric(simulator, nanoseconds(50));
    app::SyntheticApp app{sim::SyntheticKind::Fixed};
    const proto::MessagingDomain domain = tinyDomain(4, 4096);
    std::map<proto::NodeId, int> per_src;
    fabric.connect(0, [&](proto::Packet pkt) {
        if (pkt.hdr.blockIndex == 0)
            ++per_src[pkt.hdr.src];
    });
    TrafficGenerator::Params p;
    p.arrivalRps = 2e6;
    p.targetNode = 0;
    p.clientTurnaround = nanoseconds(50);
    p.seed = 3;
    TrafficGenerator tg(simulator, p, domain, app, fabric);
    tg.start();
    simulator.runUntil(sim::microseconds(3000.0));
    tg.halt();
    // 3 remote sources (nodes 1..3) should each contribute ~1/3.
    ASSERT_EQ(per_src.size(), 3u);
    for (const auto &[src, count] : per_src) {
        EXPECT_NE(src, 0u);
        EXPECT_GT(count, 1500);
    }
}

TEST(TrafficGen, HaltStopsNewRequests)
{
    Harness h(1e6, nanoseconds(100));
    h.tg->start();
    h.sim.runUntil(sim::microseconds(100.0));
    h.tg->halt();
    const auto sent = h.tg->requestsSent();
    h.sim.run();
    EXPECT_EQ(h.tg->requestsSent(), sent);
}

/**
 * One client node with one send slot, an arrival every microsecond and
 * a 10 us request timeout (swept every 2.5 us): at most one request is
 * in flight, so every recovery step shows in the generator's counters.
 */
struct RecoveryHarness
{
    Simulator sim;
    Fabric fabric{sim, nanoseconds(50)};
    app::SyntheticApp app{sim::SyntheticKind::Fixed};
    proto::MessagingDomain domain = tinyDomain(2, 1);
    EchoServer server{sim, fabric, app, nanoseconds(200)};
    std::unique_ptr<TrafficGenerator> tg;

    RecoveryHarness()
    {
        TrafficGenerator::Params p;
        p.arrivalRps = 1e6;
        p.arrival = net::ArrivalSpec::parse("deterministic");
        p.targetNode = 0;
        p.clientTurnaround = nanoseconds(50);
        p.cluster.requestTimeout = sim::microseconds(10.0);
        p.seed = 3;
        tg = std::make_unique<TrafficGenerator>(sim, p, domain, app,
                                                fabric);
        fabric.connectDefault([this](proto::Packet pkt) {
            tg->receivePacket(std::move(pkt));
        });
    }

    /** Halt, drain, and check that every launch was answered or timed
     *  out and every generated request was launched (no slot leaked). */
    void
    drainAndCheckConservation()
    {
        tg->halt();
        sim.run();
        EXPECT_EQ(tg->inFlight(), 0u);
        EXPECT_EQ(tg->requestsSent(),
                  tg->repliesReceived() + tg->requestTimeouts());
        EXPECT_EQ(tg->requestsSent(),
                  tg->requestsMadeByClass().at(0) + tg->retries());
        EXPECT_EQ(tg->verificationFailures(), 0u);
    }
};

TEST(TrafficGenRecovery, LostReplyParksCreditUntilTimeout)
{
    // The third request's reply is lost but its replenish arrives:
    // reusing the slot would alias the next request under the lost
    // request's reply key, so the credit waits for the timeout.
    RecoveryHarness h;
    h.server.swallowReply = 3;
    h.tg->start();
    h.sim.runUntil(sim::microseconds(14.0));
    EXPECT_EQ(h.server.served, 3u);
    EXPECT_EQ(h.tg->requestsSent(), 3u);
    EXPECT_EQ(h.tg->inFlight(), 1u);
    EXPECT_EQ(h.tg->requestTimeouts(), 0u);
    EXPECT_GT(h.tg->flowControlDeferrals(), 8u);

    // The sweep at 15 us expires it and frees the parked credit: the
    // queued requests flow through the slot again.
    h.sim.runUntil(sim::microseconds(16.0));
    EXPECT_EQ(h.tg->requestTimeouts(), 1u);
    EXPECT_EQ(h.tg->retries(), 1u);
    EXPECT_GT(h.tg->requestsSent(), 4u);
    EXPECT_EQ(h.tg->staleReplies(), 0u);

    h.sim.runUntil(sim::microseconds(40.0));
    h.drainAndCheckConservation();
    EXPECT_EQ(h.tg->requestTimeouts(), 1u);
    EXPECT_EQ(h.tg->repliesReceived(), h.server.served - 1);
}

TEST(TrafficGenRecovery, ReplyPastTheTimeoutCountsAsStale)
{
    // The third reply (and, behind it, its replenish) arrives 15 us
    // late. The request times out first; its slot stays consumed until
    // the late replenish returns it.
    RecoveryHarness h;
    h.server.delayReply = 3;
    h.server.replyDelay = sim::microseconds(15.0);
    h.tg->start();
    h.sim.runUntil(sim::microseconds(16.0));
    EXPECT_EQ(h.tg->requestTimeouts(), 1u);
    EXPECT_EQ(h.tg->staleReplies(), 0u);
    EXPECT_EQ(h.tg->inFlight(), 0u);
    EXPECT_EQ(h.tg->requestsSent(), 3u);

    h.sim.runUntil(sim::microseconds(40.0));
    EXPECT_EQ(h.tg->staleReplies(), 1u);
    EXPECT_GT(h.tg->requestsSent(), 10u);
    h.drainAndCheckConservation();
    EXPECT_EQ(h.tg->requestTimeouts(), 1u);
    EXPECT_EQ(h.tg->repliesReceived(), h.server.served - 1);
}

TEST(TrafficGenDeath, OutOfRangeReplyBlockPanics)
{
    // A reply block past the message's block count used to be dropped
    // silently by the client's reply assembly.
    Harness h(1e6, nanoseconds(200));
    proto::Packet pkt;
    proto::makePacket(pkt, proto::OpType::Send, 0, 1, 0,
                      std::vector<std::uint8_t>(100, 7), 0);
    pkt.hdr.blockIndex = pkt.hdr.totalBlocks;
    EXPECT_DEATH(h.tg->receivePacket(pkt), "block index out of range");
}

} // namespace
