/**
 * @file
 * Kernel bit-identity lock: fixed-seed experiments must produce
 * event-for-event identical stats across DES-kernel rewrites.
 *
 * The golden numbers below were recorded with the original
 * std::priority_queue + std::function kernel (pre timer-wheel), at
 * seed 42 (the SystemParams default). The intrusive-event/timer-wheel
 * kernel must preserve the (time, seq) determinism contract exactly:
 * same event order, same executed-event count, bit-identical latency
 * percentiles and throughput. Any divergence here means the kernel
 * changed simulation *behaviour*, not just speed.
 *
 * Comparisons are exact (EXPECT_EQ on doubles): these are replays of a
 * deterministic computation, not statistical estimates.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace {

using namespace rpcvalet;

core::RunStats
runConfig(const std::string &policy, const std::string &arrival)
{
    core::ExperimentConfig cfg;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 5000;
    if (!policy.empty())
        cfg.system.policy = ni::PolicySpec::parse(policy);
    if (!arrival.empty())
        cfg.arrival = net::ArrivalSpec::parse(arrival);
    return core::runExperiment(cfg); // cfg.workload defaults to "herd"
}

TEST(KernelIdentity, DefaultConfigMatchesPriorityQueueKernel)
{
    const core::RunStats r = runConfig("", "");
    EXPECT_EQ(r.point.p50Ns, 518.72900000000004);
    EXPECT_EQ(r.point.p99Ns, 1089.02);
    EXPECT_EQ(r.point.achievedRps, 9953790.5426921882);
    EXPECT_EQ(r.executedEvents, 93539u);
    EXPECT_EQ(r.completions, 5500u);
}

TEST(KernelIdentity, JbsqMmpp2ConfigMatchesPriorityQueueKernel)
{
    const core::RunStats r =
        runConfig("jbsq:d=2", "mmpp2:burst=0.1,ratio=10");
    EXPECT_EQ(r.point.p50Ns, 829.81100000000004);
    EXPECT_EQ(r.point.p99Ns, 16898.478999999999);
    EXPECT_EQ(r.point.achievedRps, 8710217.9456972238);
    EXPECT_EQ(r.executedEvents, 94627u);
    EXPECT_EQ(r.completions, 5500u);
}

TEST(KernelIdentity, RepeatedRunsAreBitIdentical)
{
    // The same config run twice in one process must not share hidden
    // kernel state (event pools are per-Simulator).
    const core::RunStats a = runConfig("jbsq:d=2", "");
    const core::RunStats b = runConfig("jbsq:d=2", "");
    EXPECT_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_EQ(a.executedEvents, b.executedEvents);
}

} // namespace
