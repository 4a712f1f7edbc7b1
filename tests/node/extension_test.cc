/**
 * @file
 * Tests for the extensions beyond the paper's core design: the §4.2
 * rendezvous path for large messages, the Shinjuku-style preemption
 * option (§7), and the latency-breakdown instrumentation.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "sim/logging.hh"

namespace {

using namespace rpcvalet;

// ----------------------------------------------------------- rendezvous

core::RunStats
runWithRequestBytes(std::uint32_t padding, double rps = 2e6)
{
    core::ExperimentConfig cfg;
    cfg.workload = sim::strfmt("synthetic:dist=fixed,padding=%u",
                               padding);
    cfg.arrivalRps = rps;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 5000;
    cfg.system.seed = 21;
    return core::runExperiment(cfg);
}

TEST(Rendezvous, SmallRequestsStayInline)
{
    const auto r = runWithRequestBytes(24);
    EXPECT_EQ(r.rendezvousRequests, 0u);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(Rendezvous, MultiBlockRequestsBelowCapStayInline)
{
    // 1.5 KB < maxMsgBytes (2 KB): unrolled send, no rendezvous.
    const auto r = runWithRequestBytes(1500);
    EXPECT_EQ(r.rendezvousRequests, 0u);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(Rendezvous, OversizedRequestsTakePullPathAndVerify)
{
    // 6 KB > maxMsgBytes: descriptor + one-sided pull. Every reply
    // still verifies, proving the payload bytes arrived intact.
    const auto r = runWithRequestBytes(6000);
    // Every request took the pull path (a few may still be in flight
    // when the run stops, so sent >= completed).
    EXPECT_GE(r.rendezvousRequests, r.completions);
    EXPECT_LE(r.rendezvousRequests, r.completions + 64);
    EXPECT_EQ(r.verifyFailures, 0u);
    EXPECT_EQ(r.completions, 5500u);
}

TEST(Rendezvous, PullPathAddsRoundTripLatency)
{
    // The rendezvous RPC pays an extra fabric round trip (read +
    // responses) before dispatch: ~2x the 100 ns one-way fabric
    // latency plus the pull serialization.
    const auto inline_run = runWithRequestBytes(1000, 0.5e6);
    const auto pull_run = runWithRequestBytes(6000, 0.5e6);
    EXPECT_GT(pull_run.point.p50Ns, inline_run.point.p50Ns + 150.0);
    EXPECT_LT(pull_run.point.p50Ns, inline_run.point.p50Ns + 1000.0);
}

TEST(Rendezvous, WorksInEveryDispatchMode)
{
    for (const auto mode :
         {ni::DispatchMode::SingleQueue, ni::DispatchMode::PerBackendGroup,
          ni::DispatchMode::StaticHash, ni::DispatchMode::SoftwarePull}) {
        core::ExperimentConfig cfg;
        cfg.workload = "synthetic:dist=fixed,padding=4000";
        cfg.system.mode = mode;
        cfg.system.seed = 22;
        cfg.arrivalRps = 2e6;
        cfg.warmupRpcs = 200;
        cfg.measuredRpcs = 3000;
        const auto r = core::runExperiment(cfg);
        EXPECT_EQ(r.verifyFailures, 0u)
            << ni::dispatchModeName(mode);
        EXPECT_GT(r.rendezvousRequests, 0u);
    }
}

// ----------------------------------------------------------- preemption

core::RunStats
runMasstree(sim::Tick quantum, double rps, std::uint64_t rpcs = 12000)
{
    core::ExperimentConfig cfg;
    cfg.workload = "masstree";
    cfg.system.preemptionQuantum = quantum;
    cfg.system.seed = 23;
    cfg.arrivalRps = rps;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = rpcs;
    return core::runExperiment(cfg);
}

TEST(Preemption, DisabledByDefault)
{
    const auto r = runMasstree(0, 2e6, 6000);
    EXPECT_EQ(r.preemptionYields, 0u);
}

TEST(Preemption, LongRpcsYieldWhenEnabled)
{
    // 1% scans of 60-120 us at a 15 us quantum: every scan yields
    // several times; gets (~1.25 us) never do.
    const auto r = runMasstree(sim::microseconds(15.0), 2e6, 6000);
    EXPECT_GT(r.preemptionYields, 0u);
    const auto scans = r.completions - r.criticalCompletions;
    // 60-120 us / 15 us quantum = 4-8 yields per scan.
    EXPECT_GE(r.preemptionYields, scans * 3);
    EXPECT_LE(r.preemptionYields, scans * 9);
    EXPECT_EQ(r.verifyFailures, 0u);
}

TEST(Preemption, ImprovesGetTailUnderScanInterference)
{
    // The §7 hypothesis: combining RPCValet with preemptive
    // scheduling handles mixed-runtime RPCs. At high load the
    // no-preemption p99 of gets suffers from double-booking behind
    // scans; a 15 us quantum caps that wait.
    const double rps = 3.5e6;
    const auto base = runMasstree(0, rps);
    const auto preempt = runMasstree(sim::microseconds(15.0), rps);
    EXPECT_LT(preempt.point.p99Ns, base.point.p99Ns);
    EXPECT_EQ(preempt.verifyFailures, 0u);
}

TEST(Preemption, ThroughputNotCollapsedByOverheads)
{
    const auto base = runMasstree(0, 3e6, 8000);
    const auto preempt = runMasstree(sim::microseconds(20.0), 3e6, 8000);
    EXPECT_GT(preempt.point.achievedRps,
              base.point.achievedRps * 0.95);
}

TEST(Preemption, NoEffectOnShortRpcWorkloads)
{
    core::ExperimentConfig cfg;
    cfg.workload = "synthetic:dist=gev";
    cfg.system.preemptionQuantum = sim::microseconds(15.0);
    cfg.system.seed = 24;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 10000;
    const auto r = core::runExperiment(cfg);
    // GEV tail rarely exceeds 15 us; yields are essentially absent.
    EXPECT_LT(r.preemptionYields, 10u);
}

// ------------------------------------------------------------ breakdown

TEST(Breakdown, ComponentsSumNearTotalMean)
{
    core::ExperimentConfig cfg;
    cfg.workload = "synthetic:dist=fixed";
    cfg.system.seed = 25;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 2000;
    cfg.measuredRpcs = 20000;
    const auto r = core::runExperiment(cfg);
    // The breakdown and the headline recorder cover the same measured
    // window (warmup excluded from both) and every RPC is critical, so
    // the component means sum to the latency mean up to rounding.
    const double sum = r.breakdown.reassembly.meanNs +
                       r.breakdown.dispatch.meanNs +
                       r.breakdown.queueWait.meanNs +
                       r.breakdown.service.meanNs;
    EXPECT_NEAR(sum, r.point.meanNs, r.point.meanNs * 1e-9);
}

TEST(Breakdown, QueueingLivesInDispatchForSingleQueue)
{
    // With a strict single-queue window (threshold 1), RPCValet holds
    // every queued RPC in the shared CQ: queueing surfaces in the
    // dispatch component and cores see none. (Threshold 2 moves up to
    // one RPC per core into the private CQ by design — the prefetch
    // that hides the dispatch bubble.)
    core::ExperimentConfig cfg;
    cfg.workload = "synthetic:dist=exponential";
    cfg.system.seed = 26;
    cfg.system.outstandingPerCore = 1;
    cfg.arrivalRps = 17e6; // ~87% load
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 20000;
    const auto r = core::runExperiment(cfg);
    EXPECT_GT(r.breakdown.dispatch.meanNs, 50.0);
    EXPECT_LT(r.breakdown.queueWait.meanNs, 5.0);
}

TEST(Breakdown, QueueingLivesAtCoresForStaticHash)
{
    // 16x1 pushes immediately: dispatch is constant-latency and all
    // queueing shows up in the private CQs.
    core::ExperimentConfig cfg;
    cfg.workload = "synthetic:dist=exponential";
    cfg.system.mode = ni::DispatchMode::StaticHash;
    cfg.system.seed = 26;
    cfg.arrivalRps = 15e6;
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 20000;
    const auto r = core::runExperiment(cfg);
    EXPECT_LT(r.breakdown.dispatch.meanNs, 50.0);
    EXPECT_GT(r.breakdown.queueWait.meanNs,
              r.breakdown.dispatch.meanNs);
}

TEST(Breakdown, ReassemblyScalesWithRequestSize)
{
    const auto small = runWithRequestBytes(24, 1e6);
    const auto large = runWithRequestBytes(1900, 1e6);
    // 31 blocks vs 1 block through a 3 ns/packet pipeline.
    EXPECT_GT(large.breakdown.reassembly.meanNs,
              small.breakdown.reassembly.meanNs + 50.0);
}

} // namespace
