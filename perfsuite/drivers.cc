#include "drivers.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "net/fabric.hh"
#include "ni/dispatch_policy.hh"
#include "ni/dispatcher.hh"
#include "proto/packet.hh"
#include "sim/domain.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/latency_recorder.hh"

namespace rpcvalet::perfsuite {

namespace {

using Clock = std::chrono::steady_clock;
using Message = std::vector<std::uint8_t>;

template <typename F>
double
wallNs(F &&f)
{
    const Clock::time_point t0 = Clock::now();
    f();
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Request and reply bytes of @p n RPCs served by one app instance. */
std::vector<Message>
workloadMessages(const app::WorkloadSpec &spec, std::uint64_t seed,
                 std::size_t n)
{
    const app::RpcApplicationPtr app =
        app::WorkloadRegistry::instance().make(spec);
    sim::Rng client(seed, 1);
    sim::Rng server(seed, 2);
    std::vector<Message> out;
    out.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        Message request = app->makeRequest(client);
        app::HandleResult result = app->handle(request, server);
        out.push_back(std::move(request));
        out.push_back(std::move(result.reply));
    }
    return out;
}

double
fabricNsPerPacket(const std::vector<proto::Packet> &packets,
                  std::size_t rounds)
{
    sim::EventDomain sim;
    net::Fabric fabric(sim, sim::nanoseconds(100.0));
    std::uint64_t bytes = 0;
    fabric.connect(1, [&bytes](proto::Packet pkt) {
        bytes += pkt.payload.size();
    });
    double ns = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<proto::Packet> round = packets;
        ns += wallNs([&] {
            for (proto::Packet &pkt : round)
                fabric.send(std::move(pkt));
            sim.run();
        });
    }
    RV_ASSERT(bytes > 0 || packets.empty(), "fabric delivered nothing");
    return ns / static_cast<double>(rounds * packets.size());
}

double
dispatcherNsPerRpc(const ni::PolicySpec &policy, std::uint64_t rpcs)
{
    constexpr std::uint32_t kCores = 16;
    constexpr std::uint32_t kThreshold = 2;
    sim::EventDomain sim;
    std::vector<proto::CoreId> candidates(kCores);
    std::iota(candidates.begin(), candidates.end(), 0);
    std::vector<proto::CoreId> delivered;
    ni::Dispatcher::Params params;
    params.outstandingThreshold = kThreshold;
    ni::Dispatcher disp(
        sim, params, ni::makePolicy(policy), kCores, candidates,
        [&delivered](proto::CoreId core, proto::CompletionQueueEntry) {
            delivered.push_back(core);
        });
    std::uint64_t done = 0;
    const double ns = wallNs([&] {
        while (done < rpcs) {
            for (std::uint32_t i = 0; i < kCores * kThreshold; ++i)
                disp.enqueue(proto::CompletionQueueEntry{});
            sim.run();
            for (const proto::CoreId core : delivered)
                disp.onReplenish(core);
            done += delivered.size();
            delivered.clear();
        }
    });
    return ns / static_cast<double>(done);
}

double
eventNsPerEvent(std::size_t rounds)
{
    sim::EventDomain sim;
    std::uint64_t fired = 0;
    const double ns = wallNs([&] {
        for (std::size_t r = 0; r < rounds; ++r) {
            for (int i = 0; i < 1000; ++i)
                sim.schedule(sim::nanoseconds(i), [&fired] { ++fired; });
            sim.run();
        }
    });
    return ns / static_cast<double>(fired);
}

double
windowNs(std::size_t windows)
{
    std::vector<std::unique_ptr<sim::EventDomain>> owned;
    std::vector<sim::EventDomain *> domains;
    for (sim::DomainId d = 0; d < 5; ++d) {
        owned.push_back(std::make_unique<sim::EventDomain>(d, "idle"));
        domains.push_back(owned.back().get());
    }
    core::WindowPool pool(4);
    const sim::Tick lookahead = sim::nanoseconds(100.0);
    const double ns = wallNs([&] {
        for (std::size_t w = 1; w <= windows; ++w)
            pool.run(domains, static_cast<sim::Tick>(w) * lookahead - 1);
    });
    return ns / static_cast<double>(windows);
}

} // namespace

DriverResults
runDrivers(const app::WorkloadSpec &workload, const ni::PolicySpec &policy,
           std::uint64_t seed, std::uint64_t samples)
{
    DriverResults out;

    std::vector<double> builds;
    for (int i = 0; i < 3; ++i) {
        builds.push_back(wallNs([&] {
            (void)app::WorkloadRegistry::instance().make(workload);
        }));
    }
    std::sort(builds.begin(), builds.end());
    out.appBuildS = builds[1] / 1e9;

    constexpr std::size_t kRpcs = 2000;
    const std::vector<Message> messages =
        workloadMessages(workload, seed, kRpcs);
    std::uint64_t blocks = 0;
    for (const Message &m : messages)
        blocks += proto::blocksForBytes(static_cast<std::uint32_t>(m.size()));
    out.blocksPerRpc =
        static_cast<double>(blocks) / static_cast<double>(kRpcs);

    constexpr std::size_t kRounds = 20;
    std::uint64_t packetized = 0;
    const double packetizeNs = wallNs([&] {
        for (std::size_t r = 0; r < kRounds; ++r) {
            for (const Message &m : messages) {
                packetized += proto::packetize(proto::OpType::Send, 0, 1,
                                               0, m)
                                  .size();
            }
        }
    });
    out.packetizeNsPerMsg =
        packetizeNs / static_cast<double>(kRounds * messages.size());

    std::vector<std::vector<proto::Packet>> perMessage;
    perMessage.reserve(messages.size());
    for (const Message &m : messages)
        perMessage.push_back(
            proto::packetize(proto::OpType::Send, 0, 1, 0, m));
    std::uint64_t reassembled = 0;
    const double reassembleNs = wallNs([&] {
        for (std::size_t r = 0; r < kRounds; ++r) {
            for (const auto &packets : perMessage)
                reassembled += proto::reassemble(packets).size();
        }
    });
    out.reassembleNsPerMsg =
        reassembleNs / static_cast<double>(kRounds * perMessage.size());
    RV_ASSERT(packetized == kRounds * blocks,
              "packetize produced an unexpected packet count");
    RV_ASSERT(reassembled > 0, "reassembly produced no bytes");

    std::vector<proto::Packet> allPackets;
    for (const auto &packets : perMessage)
        allPackets.insert(allPackets.end(), packets.begin(), packets.end());
    out.fabricNsPerPacket = fabricNsPerPacket(allPackets, 10);
    out.dispatcherNsPerRpc = dispatcherNsPerRpc(policy, 200000);
    out.eventNsPerEvent = eventNsPerEvent(200);
    out.windowNs = windowNs(2000);

    stats::LatencyRecorder recorder;
    sim::Rng rng(seed, 3);
    std::vector<sim::Tick> ticks(samples);
    for (sim::Tick &t : ticks)
        t = sim::nanoseconds(rng.exponential(1000.0));
    const double recordNs = wallNs([&] {
        for (const sim::Tick t : ticks)
            recorder.record(t);
    });
    out.recordNsPerSample = recordNs / static_cast<double>(samples);
    double p99 = 0.0;
    out.percentileMs =
        wallNs([&] { p99 = recorder.percentileNs(99.0); }) / 1e6;
    RV_ASSERT(p99 > 0.0, "percentile of a non-empty recorder is zero");
    return out;
}

} // namespace rpcvalet::perfsuite
