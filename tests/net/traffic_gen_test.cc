/**
 * @file
 * Unit tests for the cluster traffic generator, using a miniature
 * in-test echo server as the node under test: the happy path, flow
 * control, client tagging and the chain-member admission bypass, and
 * the timeout recovery paths (parked slot credits, slot reuse after a
 * timeout, stale replies, conservation after drain), and reply trains
 * (whole, or block by block onto a leftover partial assembly).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "app/synthetic_app.hh"
#include "conn/conn.hh"
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
        p.seed = 3;
        tg = std::make_unique<TrafficGenerator>(sim, p, domain, app,
                                                fabric);
        // The client nodes 1..3 receive the replies.
        for (proto::NodeId n = 1; n < domain.numNodes; ++n) {
            fabric.connect(n, [this](proto::Train &train) {
                tg->receive(train);
            });
        }
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

TEST(TrafficGen, EveryRequestCarriesItsSourceNodesClient)
{
    // A config that names no client population still tags every
    // request: one logical client per emulated client node, living on
    // that node. The client nodes follow the server block, so the
    // client to node mapping has to step over it.
    Simulator simulator;
    Fabric fabric(simulator, nanoseconds(50));
    app::SyntheticApp app{sim::SyntheticKind::Fixed};
    const proto::MessagingDomain domain = tinyDomain(4, 4096);
    TrafficGenerator::Params p;
    p.arrivalRps = 2e6;
    p.seed = 3;
    TrafficGenerator tg(simulator, p, domain, app, fabric);
    const std::uint32_t numClients = domain.numNodes - 1;
    std::map<std::uint32_t, int> per_client;
    fabric.connect(0, [&](proto::Packet pkt) {
        ASSERT_EQ(pkt.hdr.op, proto::OpType::Send);
        ASSERT_LT(pkt.hdr.connClient, numClients);
        EXPECT_EQ(tg.connNodeFor(pkt.hdr.connClient), pkt.hdr.src);
        if (pkt.hdr.blockIndex == 0)
            ++per_client[pkt.hdr.connClient];
    });
    tg.start();
    simulator.runUntil(sim::microseconds(500.0));
    tg.halt();
    EXPECT_EQ(per_client.size(), numClients);
    EXPECT_EQ(tg.connNodeFor(0), 1u);
    EXPECT_EQ(tg.connNodeFor(1), 2u);
    EXPECT_EQ(tg.connNodeFor(2), 3u);
}

TEST(TrafficGen, ChainMembersSkipTheAdmissionGate)
{
    // 64 clients in groups of one: only client 0 may issue during the
    // first slice. Nested RPCs and their timeout retries must still
    // leave at once from whichever client they drew, since their root
    // waits on them. Node 0 swallows every request, so each nested RPC
    // expires at 10 us and is retried at that sweep.
    Simulator simulator;
    Fabric fabric(simulator, nanoseconds(50));
    app::SyntheticApp app{sim::SyntheticKind::Fixed};
    const proto::MessagingDomain domain = tinyDomain(4, 4096);
    TrafficGenerator::Params p;
    p.arrivalRps = 1.0; // no client arrival inside the window
    p.seed = 3;
    p.cluster.requestTimeout = sim::microseconds(10.0);
    p.connections =
        conn::parseConnConfig("grouped:clients=64,size=1,slice=100us");
    TrafficGenerator tg(simulator, p, domain, app, fabric);
    std::map<std::uint32_t, int> per_client;
    int sends = 0;
    fabric.connect(0, [&](proto::Packet pkt) {
        if (pkt.hdr.blockIndex == 0) {
            ++sends;
            ++per_client[pkt.hdr.connClient];
        }
    });
    tg.start();
    sim::Rng rng(1, 0x7E5);
    std::vector<std::vector<std::uint8_t>> nested;
    for (int i = 0; i < 8; ++i)
        nested.push_back(app.makeRequest(rng));
    tg.issueNested(std::move(nested), [] {});

    simulator.runUntil(sim::microseconds(1.0));
    EXPECT_EQ(sends, 8);
    // Most draws land outside the active group (client 0).
    EXPECT_GT(per_client.size() - per_client.count(0), 4u);
    simulator.runUntil(sim::microseconds(11.0));
    EXPECT_EQ(tg.requestTimeouts(), 8u);
    EXPECT_EQ(sends, 16);
    tg.halt();
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
        p.cluster.requestTimeout = sim::microseconds(10.0);
        p.seed = 3;
        tg = std::make_unique<TrafficGenerator>(sim, p, domain, app,
                                                fabric);
        // Node 1, the one client node, receives the replies.
        fabric.connect(1, [this](proto::Train &train) {
            tg->receive(train);
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

/**
 * One client node (1) with one slot, and the test playing server 0:
 * it catches one request and sends the reply itself.
 */
struct ReplyHarness
{
    Simulator sim;
    Fabric fabric{sim, nanoseconds(50)};
    app::SyntheticApp app{sim::SyntheticKind::Fixed};
    proto::MessagingDomain domain = tinyDomain(2, 1);
    std::unique_ptr<TrafficGenerator> tg;
    std::vector<std::uint8_t> request;
    proto::NodeId client = 0;
    std::uint32_t slot = 0;
    bool done = false;

    ReplyHarness()
    {
        fabric.connect(0, [this](const proto::Packet &pkt) {
            if (pkt.hdr.op != proto::OpType::Send)
                return;
            request.assign(pkt.payload.begin(), pkt.payload.end());
            client = pkt.hdr.src;
            slot = pkt.hdr.slot;
        });
        TrafficGenerator::Params p;
        p.arrivalRps = 1.0;
        p.seed = 3;
        tg = std::make_unique<TrafficGenerator>(sim, p, domain, app,
                                                fabric);
        fabric.connect(1, [this](proto::Train &train) {
            tg->receive(train);
        });
        // One request, issued as a chain member (no arrivals needed).
        sim::Rng rng(1, 0x7E5);
        std::vector<std::vector<std::uint8_t>> one;
        one.push_back(app.makeRequest(rng));
        tg->issueNested(std::move(one), [this] { done = true; });
        sim.runUntil(sim::microseconds(1.0));
    }

    /** The server's reply to the caught request, as one train. */
    proto::Train
    reply()
    {
        sim::Rng rng(1, 0xEC0);
        proto::Train train;
        proto::makeTrain(train, proto::OpType::Send, 0, client, slot,
                         app.handle(request, rng).reply);
        return train;
    }
};

TEST(TrafficGen, ReplyTrainCompletesFromItsBytes)
{
    ReplyHarness h;
    ASSERT_FALSE(h.request.empty());
    proto::Train train = h.reply();
    ASSERT_GT(train.blocks(), 1u);
    h.fabric.send(train);
    h.sim.run();
    EXPECT_TRUE(h.done);
    EXPECT_EQ(h.tg->repliesReceived(), 1u);
    EXPECT_EQ(h.tg->verificationFailures(), 0u);
    EXPECT_EQ(h.tg->inFlight(), 0u);
}

TEST(TrafficGen, ReplyTrainOnALeftoverPartialGoesBlockByBlock)
{
    // Block 1 of a stray 10-block message already sits in the slot's
    // reply assembly. Block by block, the reply's 8 blocks join it and
    // leave it one block short; the stray's last block then completes
    // a 600 B "reply" that fails verification. A train must do exactly
    // that rather than complete from its own bytes.
    for (const bool as_train : {false, true}) {
        SCOPED_TRACE(as_train ? "train" : "packets");
        ReplyHarness h;
        const std::vector<std::uint8_t> stray(600, 0xEE);
        proto::Packet pkt;
        proto::makePacket(pkt, proto::OpType::Send, 0, h.client, h.slot,
                          stray, 1);
        h.fabric.send(pkt);
        proto::Train train = h.reply();
        ASSERT_EQ(train.blocks(), 8u);
        if (as_train) {
            h.fabric.send(train);
        } else {
            for (std::uint32_t b = 0; b < train.blocks(); ++b) {
                proto::trainPacket(train, b, pkt);
                h.fabric.send(pkt);
            }
        }
        h.sim.run();
        EXPECT_FALSE(h.done);
        EXPECT_EQ(h.tg->repliesReceived(), 0u);
        EXPECT_EQ(h.tg->inFlight(), 1u);

        proto::makePacket(pkt, proto::OpType::Send, 0, h.client, h.slot,
                          stray, 9);
        h.fabric.send(pkt);
        h.sim.run();
        EXPECT_TRUE(h.done);
        EXPECT_EQ(h.tg->repliesReceived(), 1u);
        EXPECT_EQ(h.tg->verificationFailures(), 1u);
        EXPECT_EQ(h.tg->inFlight(), 0u);
    }
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
    proto::Train train;
    proto::packetTrain(pkt, train);
    EXPECT_DEATH(h.tg->receive(train), "block index out of range");
}

} // namespace
