/**
 * @file
 * SystemParams defaults and the model constants must embody Table 1,
 * and validation must reject inconsistent configurations. (Table 1 is
 * the paper's only table; this test is its "reproduction".)
 */

#include <gtest/gtest.h>

#include "mem/memory_model.hh"
#include "noc/mesh.hh"
#include "node/params.hh"
#include "node/rpc_node.hh"

namespace {

namespace mem = rpcvalet::mem;
namespace noc = rpcvalet::noc;
using rpcvalet::node::SystemParams;
using rpcvalet::sim::nanoseconds;

TEST(Table1, DefaultsMatchPaperParameters)
{
    const SystemParams p;
    // "ARM Cortex-A57-like; 64-bit, 2GHz" on a 16-core tiled chip.
    EXPECT_DOUBLE_EQ(noc::chipClock.frequencyGhz(), 2.0);
    EXPECT_EQ(p.numCores, 16u);
    EXPECT_EQ(p.meshRows * p.meshCols, 16);
    // "2D mesh, 16B links, 3 cycles/hop".
    EXPECT_DOUBLE_EQ(noc::hopCycles, 3.0);
    EXPECT_EQ(noc::linkBytes, 16u);
    // Memory: 50 ns.
    EXPECT_EQ(mem::dramLatency, nanoseconds(50.0));
    // 64-byte blocks are the protocol MTU.
    EXPECT_EQ(rpcvalet::proto::cacheBlockBytes, 64u);
    // §5: 200-node cluster; §4.3: threshold 2.
    EXPECT_EQ(p.domain.numNodes, 200u);
    EXPECT_EQ(p.outstandingPerCore, 2u);
}

TEST(Table1, ClockArithmetic)
{
    // 3 cycles/hop at 2 GHz = 1.5 ns.
    EXPECT_EQ(noc::chipClock.cycles(noc::hopCycles), nanoseconds(1.5));
}

TEST(CoreCosts, OverheadCalibratedToPaperServiceTime)
{
    // §6.1: HERD processing mean 330 ns yields S-bar ~550 ns, i.e.
    // ~220 ns of per-RPC loop overhead.
    EXPECT_EQ(rpcvalet::node::costs::totalOverhead, nanoseconds(220.0));
}

TEST(MessagingFootprint, MatchesPaperFormula)
{
    // §4.2: 32*N*S + (max_msg_size + 64)*N*S bytes; "a few tens of
    // MBs" for current deployments.
    const SystemParams p;
    const auto &d = p.domain;
    const std::uint64_t expected =
        32ULL * d.numNodes * d.slotsPerNode +
        (static_cast<std::uint64_t>(d.maxMsgBytes) + 64) * d.numNodes *
            d.slotsPerNode;
    EXPECT_EQ(d.footprintBytes(), expected);
    EXPECT_LT(d.footprintBytes(), 64ULL << 20);
}

using ConfigDeath = ::testing::Test;

TEST(ConfigDeath, RejectsZeroCores)
{
    SystemParams p;
    p.numCores = 0;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1), "core");
}

TEST(ConfigDeath, RejectsMeshMismatch)
{
    SystemParams p;
    p.numCores = 12; // mesh stays 4x4 = 16
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1), "mesh");
}

TEST(ConfigDeath, RejectsBadDispatcherBackend)
{
    SystemParams p;
    p.dispatcherBackend = 9;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "dispatcherBackend");
}

TEST(ConfigDeath, RejectsZeroThreshold)
{
    SystemParams p;
    p.outstandingPerCore = 0;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "outstanding");
}

TEST(ConfigDeath, RejectsUnalignedMaxMsgBytes)
{
    SystemParams p;
    p.domain.maxMsgBytes = 100; // not a multiple of 64
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1), "maxMsg");
}

TEST(ConfigDeath, RejectsNodeIdOutsideDomain)
{
    SystemParams p;
    p.nodeId = 500;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1), "nodeId");
}

TEST(ConfigDeath, RejectsUnregisteredPolicyListingAlternatives)
{
    SystemParams p;
    p.policy.name = "nonesuch";
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "unknown dispatch policy 'nonesuch'.*greedy");
}

TEST(Config, DefaultPolicyIsGreedySpec)
{
    const SystemParams p;
    EXPECT_EQ(p.policy, rpcvalet::ni::PolicySpec("greedy"));
}

TEST(Config, DefaultConfigValidates)
{
    SystemParams p;
    p.validate(); // must not exit
    SUCCEED();
}

} // namespace
