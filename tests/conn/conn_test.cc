/**
 * @file
 * Tests of the connection-management subsystem (src/conn/): registry
 * and spec validation (malformed specs die loudly at parse time), the
 * ScaleRPC grouped scheduler's mechanics against invariants I1-I5,
 * the grouped-with-one-group == all equivalence, the default config
 * (a derived population under `all`) reporting no conn stats, and
 * determinism of a grouped run across parallel-domain worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "conn/conn.hh"
#include "core/experiment.hh"
#include "sim/domain.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

// ----- registry -----

TEST(ConnRegistry, BuiltinsAreRegistered)
{
    auto &reg = conn::ConnRegistry::instance();
    EXPECT_TRUE(reg.contains("all"));
    EXPECT_TRUE(reg.contains("grouped"));
}

TEST(ConnRegistryDeath, UnknownNameListsEveryRegisteredScheduler)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("groupde:size=40")),
                ::testing::ExitedWithCode(1), "groupde.*all.*grouped");
}

// ----- spec validation dies at parse time -----

TEST(ConnSpecDeath, GroupedSizeZeroIsFatal)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("grouped:size=0")),
                ::testing::ExitedWithCode(1), "size must be >= 1");
}

TEST(ConnSpecDeath, GroupedSliceZeroIsFatal)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("grouped:slice=0")),
                ::testing::ExitedWithCode(1), "slice must be > 0");
}

TEST(ConnSpecDeath, GroupedWindowZeroIsFatal)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("grouped:window=0")),
                ::testing::ExitedWithCode(1), "window must be >= 1");
}

TEST(ConnSpecDeath, GroupedWarmupMustBeBoolean)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("grouped:warmup=2")),
                ::testing::ExitedWithCode(1),
                "parameter 'warmup=2': '2' is not a boolean");
}

TEST(ConnSpecDeath, GroupedRegroupModeIsChecked)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("grouped:regroup=banana")),
                ::testing::ExitedWithCode(1),
                "regroup must be 'none' or 'priority'");
}

TEST(ConnSpecDeath, AllRejectsStrayParameters)
{
    EXPECT_EXIT((void)conn::ConnRegistry::instance().make(
                    conn::ConnSpec("all:size=40")),
                ::testing::ExitedWithCode(1), "size");
}

TEST(ConnConfigDeath, MissingClientsKeyIsFatal)
{
    EXPECT_EXIT((void)conn::parseConnConfig("grouped:size=40"),
                ::testing::ExitedWithCode(1), "clients");
}

TEST(ConnConfigDeath, ZeroClientsIsFatal)
{
    EXPECT_EXIT((void)conn::parseConnConfig("all:clients=0"),
                ::testing::ExitedWithCode(1), "clients=0");
}

TEST(ConnConfigDeath, ClientsTakeTheScenarioKeyBound)
{
    // [connections] clients is bounded to [1, 2^24]; the flag form is
    // the same key.
    EXPECT_EXIT((void)conn::parseConnConfig("all:clients=16777217"),
                ::testing::ExitedWithCode(1),
                "parameter 'clients=16777217'.*out of range");
}

TEST(ConnConfig, FlagFormParsesTheDocumentedExample)
{
    // The --connections example in bench/common.hh.
    const conn::ConnConfig cfg =
        conn::parseConnConfig("all:clients=2048,qp_capacity=64");
    EXPECT_EQ(cfg.numClients, 2048u);
    EXPECT_EQ(cfg.qpCapacity, 64u);
    EXPECT_EQ(cfg.schedulerSpec().toString(), "all");
}

TEST(ConnConfigDeath, QpColdIsNotAFlagKey)
{
    // The cold-fetch penalty is the constant node::qpColdFetch: a
    // qp_cold= key reaches the scheduler, which rejects it, and the
    // flag's ErrorContext frame names where it came from.
    EXPECT_EXIT(
        {
            const sim::ErrorContext ctx(
                "--connections=all:clients=1,qp_cold=1us");
            (void)conn::parseConnConfig("all:clients=1,qp_cold=1us");
        },
        ::testing::ExitedWithCode(1),
        "--connections=all:clients=1,qp_cold=1us: .*unknown parameter "
        "'qp_cold'");
}

// ----- effective QP capacity derivation -----

TEST(ConnConfig, QpCapacityDerivesFromGroupSizeThenDefault)
{
    EXPECT_EQ(conn::effectiveQpCapacity(conn::parseConnConfig(
                  "all:clients=100,qp_capacity=17")),
              17u);
    // I2: the physical pool is sized for one group.
    EXPECT_EQ(conn::effectiveQpCapacity(conn::parseConnConfig(
                  "grouped:clients=100,size=25")),
              25u);
    EXPECT_EQ(conn::effectiveQpCapacity(
                  conn::parseConnConfig("all:clients=100")),
              64u);
}

// ----- grouped mechanics, driven directly -----

/** Test harness: a queue per client behind the scheduler's AdmitFn. */
struct AdmitHarness
{
    sim::EventDomain sim;
    conn::ConnSchedulerPtr sched;
    std::map<std::uint32_t, std::uint32_t> queued;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> admits;

    explicit AdmitHarness(const std::string &spec,
                          std::uint32_t clients)
        : sched(conn::ConnRegistry::instance().make(
              conn::ConnSpec(spec)))
    {
        sched->bind(clients, sim,
                    [this](std::uint32_t client, std::uint32_t limit) {
                        admits.emplace_back(client, limit);
                        std::uint32_t &q = queued[client];
                        const std::uint32_t n =
                            limit == 0 ? q : std::min(limit, q);
                        q -= n;
                        for (std::uint32_t i = 0; i < n; ++i)
                            sched->onLaunched(client);
                        return n;
                    });
        sched->start();
    }
};

TEST(GroupedScheduler, OnlyActiveGroupMayIssue)
{
    AdmitHarness h("grouped:size=2,slice=1us", 6);
    // I1: group 0 (clients 0, 1) is active, everyone else defers.
    EXPECT_TRUE(h.sched->mayIssue(0));
    EXPECT_TRUE(h.sched->mayIssue(1));
    for (std::uint32_t c = 2; c < 6; ++c)
        EXPECT_FALSE(h.sched->mayIssue(c)) << c;
    EXPECT_EQ(h.sched->numGroups(), 3u);
    EXPECT_EQ(h.sched->groupOf(0), 0u);
    EXPECT_EQ(h.sched->groupOf(5), 2u);
}

TEST(GroupedScheduler, SliceExpiryRotatesTheActiveGroup)
{
    AdmitHarness h("grouped:size=2,slice=1us,warmup=0", 4);
    h.sim.runUntil(sim::nanoseconds(1500.0));
    // No outstanding requests: the switch happens at the expiry.
    EXPECT_FALSE(h.sched->mayIssue(0));
    EXPECT_TRUE(h.sched->mayIssue(2));
    EXPECT_TRUE(h.sched->mayIssue(3));
    EXPECT_EQ(h.sched->stats().groupSwitches, 1u);
}

TEST(GroupedScheduler, SwitchWaitsForTheActiveGroupToDrain)
{
    AdmitHarness h("grouped:size=2,slice=1us,warmup=0", 4);
    h.sched->onLaunched(0);
    h.sim.runUntil(sim::nanoseconds(2500.0));
    // I3: client 0 still has an outstanding request, so the slice has
    // expired but the switch is pending; nobody may issue meanwhile.
    EXPECT_EQ(h.sched->stats().groupSwitches, 0u);
    EXPECT_FALSE(h.sched->mayIssue(0));
    EXPECT_FALSE(h.sched->mayIssue(2));
    h.sched->onRetired(0);
    // I5: the retire completes the switch; group 1 takes over.
    EXPECT_EQ(h.sched->stats().groupSwitches, 1u);
    EXPECT_TRUE(h.sched->mayIssue(2));
}

TEST(GroupedScheduler, WarmupPreAdmitsAndPromotesOnFirstResponse)
{
    AdmitHarness h("grouped:size=2,slice=1us,warmup=1", 4);
    h.queued[2] = 3; // client 2 has deferred requests waiting
    h.sim.runUntil(sim::nanoseconds(1500.0));
    // The drain warmed client 2 with exactly one pre-admitted request
    // and client 3 had nothing queued (a warmup miss).
    EXPECT_EQ(h.sched->stats().warmupHits, 1u);
    EXPECT_EQ(h.sched->stats().warmupMisses, 1u);
    EXPECT_EQ(h.queued[2], 2u);
    // I4: a warmed-up client may not issue until its first response.
    EXPECT_FALSE(h.sched->mayIssue(2));
    EXPECT_TRUE(h.sched->mayIssue(3));
    h.sched->onRetired(2);
    h.sched->onCompleted(2, 64);
    EXPECT_TRUE(h.sched->mayIssue(2));
}

TEST(GroupedScheduler, BacklogDrainsUnderTheClientWindow)
{
    AdmitHarness h("grouped:size=2,slice=1us,warmup=0,window=2", 4);
    h.queued[2] = 10;
    h.sim.runUntil(sim::nanoseconds(1500.0));
    // Activation released at most `window` of the backlog, not all of
    // it; each completion releases one more.
    EXPECT_EQ(h.queued[2], 8u);
    h.sched->onRetired(2);
    h.sched->onCompleted(2, 64);
    EXPECT_EQ(h.queued[2], 7u);
}

TEST(GroupedScheduler, PriorityRegroupReordersByMeasuredPi)
{
    // One full rotation of 2 groups; client 3 does far more work per
    // byte than anyone else, so after the epoch it must lead the
    // partition (group 0).
    AdmitHarness h("grouped:size=2,slice=1us,warmup=0,regroup=priority",
                   4);
    for (int i = 0; i < 8; ++i)
        h.sched->onCompleted(3, 64);
    h.sched->onCompleted(0, 64);
    h.sim.runUntil(sim::nanoseconds(2500.0)); // two switches = epoch
    EXPECT_EQ(h.sched->stats().regroups, 1u);
    EXPECT_EQ(h.sched->groupOf(3), 0u);
}

// ----- equivalence and identity locks -----

core::ExperimentConfig
smallConfig()
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 8e6;
    cfg.warmupRpcs = 200;
    cfg.measuredRpcs = 3000;
    cfg.system.seed = 42;
    return cfg;
}

void
expectSamePoint(const core::RunStats &a, const core::RunStats &b)
{
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.point.samples, b.point.samples);
    EXPECT_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
}

TEST(ConnExperiment, GroupedWithOneGroupMatchesAllBitForBit)
{
    // 48 clients in a single size-64 group: no slice timer is ever
    // armed, so the event schedule must match `all` exactly (both
    // resolve to the same qp capacity).
    core::ExperimentConfig all = smallConfig();
    all.connections =
        conn::parseConnConfig("all:clients=48,qp_capacity=64");
    core::ExperimentConfig grouped = smallConfig();
    grouped.connections = conn::parseConnConfig(
        "grouped:clients=48,size=64,qp_capacity=64");

    const core::RunStats a = core::runExperiment(all);
    const core::RunStats b = core::runExperiment(grouped);
    expectSamePoint(a, b);
    EXPECT_EQ(b.conn.groupSwitches, 0u);
    EXPECT_EQ(b.conn.groups, 1u);
    EXPECT_EQ(a.conn.deferredTotal, 0u);
    EXPECT_EQ(b.conn.deferredTotal, 0u);
}

TEST(ConnExperiment, DefaultConfigKeepsTheSubsystemOff)
{
    const core::RunStats st = core::runExperiment(smallConfig());
    EXPECT_EQ(st.conn.clients, 0u);
    EXPECT_TRUE(st.conn.scheduler.empty());
    EXPECT_EQ(st.conn.qpHits + st.conn.qpMisses, 0u);
}

TEST(ConnExperiment, GroupedRunIsDeterministicAcrossReruns)
{
    core::ExperimentConfig cfg = smallConfig();
    cfg.connections = conn::parseConnConfig(
        "grouped:clients=256,size=40,slice=20us");
    const core::RunStats a = core::runExperiment(cfg);
    const core::RunStats b = core::runExperiment(cfg);
    expectSamePoint(a, b);
    EXPECT_EQ(a.conn.groupSwitches, b.conn.groupSwitches);
    EXPECT_EQ(a.conn.deferredTotal, b.conn.deferredTotal);
    EXPECT_EQ(a.conn.qpMisses, b.conn.qpMisses);
}

TEST(ConnExperiment, GroupedClusterRunIsDeterministicAcrossWorkers)
{
    // The scheduler lives in the client domain (domain 0), so a
    // grouped cluster run must be bit-identical no matter how many
    // PDES workers execute the domains.
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 20e6;
    cfg.warmupRpcs = 200;
    cfg.measuredRpcs = 2000;
    cfg.system.seed = 7;
    cfg.cluster.numServerNodes = 2;
    cfg.cluster.router = cluster::RouterSpec::parse("shard");
    cfg.connections = conn::parseConnConfig(
        "grouped:clients=512,size=40,slice=20us");

    std::vector<core::RunStats> runs;
    for (const unsigned workers : {1u, 2u, 4u}) {
        core::ExperimentConfig c = cfg;
        c.parallelDomains = workers;
        runs.push_back(core::runExperiment(c));
    }
    expectSamePoint(runs[0], runs[1]);
    expectSamePoint(runs[0], runs[2]);
    EXPECT_EQ(runs[0].conn.groupSwitches, runs[1].conn.groupSwitches);
    EXPECT_EQ(runs[0].conn.groupSwitches, runs[2].conn.groupSwitches);
    EXPECT_EQ(runs[0].conn.qpMisses, runs[1].conn.qpMisses);
    EXPECT_EQ(runs[0].conn.qpMisses, runs[2].conn.qpMisses);
    EXPECT_GT(runs[0].conn.groupSwitches, 0u);
}

TEST(ConnExperiment, QpCacheThrashIsVisibleInTheStats)
{
    // 512 clients against a 64-entry cache: almost every request is a
    // miss under `all`. Grouping the same population turns the misses
    // into hits.
    core::ExperimentConfig all = smallConfig();
    all.connections =
        conn::parseConnConfig("all:clients=512,qp_capacity=64");
    const core::RunStats a = core::runExperiment(all);
    ASSERT_GT(a.conn.qpHits + a.conn.qpMisses, 0u);
    EXPECT_GT(a.conn.qpMisses, a.conn.qpHits);

    core::ExperimentConfig grouped = smallConfig();
    grouped.connections = conn::parseConnConfig(
        "grouped:clients=512,size=40,slice=20us,qp_capacity=64");
    const core::RunStats g = core::runExperiment(grouped);
    ASSERT_GT(g.conn.qpHits + g.conn.qpMisses, 0u);
    EXPECT_GT(g.conn.qpHits, g.conn.qpMisses);
    EXPECT_GT(g.conn.deferredTotal, 0u);
    EXPECT_GT(g.conn.groupSwitches, 0u);
}

} // namespace
