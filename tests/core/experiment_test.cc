/**
 * @file
 * End-to-end integration tests of the full system through the public
 * Experiment API: functional correctness (every reply verified),
 * conservation laws, determinism, and the paper's qualitative
 * load-balancing results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "app/synthetic_app.hh"
#include "app/workload.hh"
#include "core/experiment.hh"

namespace {

using namespace rpcvalet;
using core::ExperimentConfig;
using core::RunStats;
using core::runExperiment;

ExperimentConfig
smallConfig(ni::DispatchMode mode, double arrival_rps)
{
    ExperimentConfig cfg;
    cfg.system.mode = mode;
    cfg.system.seed = 12345;
    cfg.arrivalRps = arrival_rps;
    cfg.warmupRpcs = 2000;
    cfg.measuredRpcs = 20000;
    return cfg;
}

TEST(Experiment, HerdModerateLoadCompletesAndVerifies)
{
    const RunStats r =
        runExperiment(smallConfig(ni::DispatchMode::SingleQueue, 10e6));
    EXPECT_EQ(r.completions, 22000u);
    EXPECT_EQ(r.verifyFailures, 0u);
    EXPECT_EQ(r.point.samples, 20000u);
    // At ~35% load the achieved throughput tracks the offered rate.
    EXPECT_NEAR(r.point.achievedRps, 10e6, 10e6 * 0.05);
    EXPECT_GT(r.point.p99Ns, 0.0);
}

TEST(Experiment, MeasuredServiceTimeMatchesCalibration)
{
    // §6.1: HERD's measured mean service time is ~550 ns (330 ns mean
    // processing + ~220 ns loop overhead).
    const RunStats r =
        runExperiment(smallConfig(ni::DispatchMode::SingleQueue, 5e6));
    EXPECT_GT(r.meanServiceNs, 500.0);
    EXPECT_LT(r.meanServiceNs, 610.0);
}

TEST(Experiment, LowLoadLatencyIsUnqueuedLatency)
{
    // At very low load an RPC's latency is just the protocol path +
    // service time: well under 1.5x S-bar, and p99 close to mean.
    const RunStats r =
        runExperiment(smallConfig(ni::DispatchMode::SingleQueue, 1e6));
    EXPECT_LT(r.point.meanNs, 1.5 * r.meanServiceNs);
    EXPECT_LT(r.point.p99Ns, 3.0 * r.meanServiceNs);
}

class ExperimentAllModes
    : public ::testing::TestWithParam<ni::DispatchMode>
{
};

TEST_P(ExperimentAllModes, RepliesVerifyAndThroughputTracksOffered)
{
    const RunStats r = runExperiment(smallConfig(GetParam(), 8e6));
    EXPECT_EQ(r.verifyFailures, 0u);
    EXPECT_EQ(r.completions, 22000u);
    EXPECT_NEAR(r.point.achievedRps, 8e6, 8e6 * 0.06);
}

TEST_P(ExperimentAllModes, DeterministicForSameSeed)
{
    auto run_once = [&] {
        return runExperiment(smallConfig(GetParam(), 12e6));
    };
    const RunStats a = run_once();
    const RunStats b = run_once();
    EXPECT_DOUBLE_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_DOUBLE_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_DOUBLE_EQ(a.simulatedUs, b.simulatedUs);
    EXPECT_EQ(a.perCoreServed, b.perCoreServed);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ExperimentAllModes,
    ::testing::Values(ni::DispatchMode::SingleQueue,
                      ni::DispatchMode::PerBackendGroup,
                      ni::DispatchMode::StaticHash,
                      ni::DispatchMode::SoftwarePull),
    [](const auto &tpinfo) {
        // gtest test names must be alphanumeric/underscore.
        std::string name = ni::dispatchModeName(tpinfo.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Experiment, DefaultSpecsBitIdenticalToExplicitStrings)
{
    // Neither the PolicySpec nor the ArrivalSpec plumbing may perturb
    // a single decision: the default-constructed specs and their
    // explicit string forms reproduce identical RunStats for one seed.
    auto run_with = [](const ni::PolicySpec &policy,
                       const net::ArrivalSpec &arrival) {
        ExperimentConfig cfg =
            smallConfig(ni::DispatchMode::SingleQueue, 14e6);
        cfg.system.policy = policy;
        cfg.arrival = arrival;
        return runExperiment(cfg);
    };
    const RunStats via_default =
        run_with(ni::PolicySpec{}, net::ArrivalSpec{});
    const RunStats via_string = run_with("greedy", "poisson");

    auto expect_identical = [](const RunStats &a, const RunStats &b) {
        EXPECT_DOUBLE_EQ(a.point.meanNs, b.point.meanNs);
        EXPECT_DOUBLE_EQ(a.point.p50Ns, b.point.p50Ns);
        EXPECT_DOUBLE_EQ(a.point.p90Ns, b.point.p90Ns);
        EXPECT_DOUBLE_EQ(a.point.p99Ns, b.point.p99Ns);
        EXPECT_DOUBLE_EQ(a.point.achievedRps, b.point.achievedRps);
        EXPECT_DOUBLE_EQ(a.meanServiceNs, b.meanServiceNs);
        EXPECT_DOUBLE_EQ(a.simulatedUs, b.simulatedUs);
        EXPECT_EQ(a.completions, b.completions);
        EXPECT_EQ(a.replySlotStalls, b.replySlotStalls);
        EXPECT_EQ(a.perCoreServed, b.perCoreServed);
        EXPECT_DOUBLE_EQ(a.breakdown.dispatch.p99Ns,
                         b.breakdown.dispatch.p99Ns);
        EXPECT_DOUBLE_EQ(a.breakdown.queueWait.meanNs,
                         b.breakdown.queueWait.meanNs);
    };
    expect_identical(via_default, via_string);
}

TEST(ExperimentDeath, UnknownArrivalProcessIsFatal)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 10e6);
    cfg.arrival.name = "nonesuch";
    EXPECT_EXIT(runExperiment(cfg), ::testing::ExitedWithCode(1),
                "unknown arrival process 'nonesuch'.*poisson");
}

TEST(Experiment, BurstyArrivalsInflateTheTailAtEqualLoad)
{
    // The motivation for the arrival subsystem: at the same average
    // rate, MMPP bursts must produce a worse p99 than Poisson.
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 14e6);
    const RunStats poisson = runExperiment(cfg);
    cfg.arrival = "mmpp2:burst=0.1,ratio=8,dwell=20us";
    const RunStats bursty = runExperiment(cfg);
    EXPECT_EQ(bursty.verifyFailures, 0u);
    EXPECT_GT(bursty.point.p99Ns, 1.5 * poisson.point.p99Ns);
}

TEST(Experiment, SingleQueueBalancesLoadAcrossCores)
{
    const RunStats r =
        runExperiment(smallConfig(ni::DispatchMode::SingleQueue, 20e6));
    // With 22k RPCs over 16 cores, RPCValet's single queue keeps
    // per-core counts within a tight band of the mean.
    const double mean = 22000.0 / 16.0;
    for (const auto served : r.perCoreServed) {
        EXPECT_GT(static_cast<double>(served), mean * 0.8);
        EXPECT_LT(static_cast<double>(served), mean * 1.2);
    }
}

TEST(Experiment, TailOrderingAcrossHardwareModes)
{
    // Fig. 7: p99(1x16) <= p99(4x4) <= p99(16x1) under high load with
    // a variable service-time workload.
    auto p99_of = [&](ni::DispatchMode mode) {
        ExperimentConfig cfg = smallConfig(mode, 14e6);
        cfg.workload = "synthetic:dist=gev";
        cfg.measuredRpcs = 40000;
        return runExperiment(cfg).point.p99Ns;
    };
    const double single = p99_of(ni::DispatchMode::SingleQueue);
    const double grouped = p99_of(ni::DispatchMode::PerBackendGroup);
    const double partitioned = p99_of(ni::DispatchMode::StaticHash);
    EXPECT_LT(single, grouped);
    EXPECT_LT(grouped, partitioned);
}

TEST(Experiment, SoftwareQueueSaturatesBeforeHardware)
{
    // §6.2: the MCS-locked software queue serializes dequeues; at an
    // offered load beyond its lock capacity it cannot keep up, while
    // hardware 1x16 can.
    auto achieved = [&](ni::DispatchMode mode) {
        ExperimentConfig cfg = smallConfig(mode, 10e6);
        cfg.workload = "synthetic:dist=exponential";
        cfg.measuredRpcs = 30000;
        return runExperiment(cfg).point.achievedRps;
    };
    const double hw = achieved(ni::DispatchMode::SingleQueue);
    const double sw = achieved(ni::DispatchMode::SoftwarePull);
    EXPECT_NEAR(hw, 10e6, 10e6 * 0.05); // hardware keeps up
    EXPECT_LT(sw, 9e6);                 // software lock saturates
}

TEST(Experiment, OverloadCapsAtCoreCapacity)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 80e6);
    cfg.measuredRpcs = 40000;
    const RunStats r = runExperiment(cfg);
    // Capacity = 16 cores / S-bar. Achieved must cap there (+/-7%).
    const double capacity = 16.0 / (r.meanServiceNs * 1e-9);
    EXPECT_LT(r.point.achievedRps, capacity * 1.07);
    EXPECT_GT(r.point.achievedRps, capacity * 0.85);
    // Flow control must have engaged rather than unbounded queueing.
    EXPECT_GT(r.flowControlDeferrals, 0u);
}

TEST(Experiment, MasstreeScansAreServedButNotLatencyCritical)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 2e6);
    cfg.workload = "masstree";
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 10000;
    const RunStats r = runExperiment(cfg);
    EXPECT_EQ(r.verifyFailures, 0u);
    // ~1% scans: critical completions < all completions.
    EXPECT_LT(r.criticalCompletions, r.completions);
    EXPECT_GT(r.criticalCompletions,
              static_cast<std::uint64_t>(0.97 * 10500));
}

TEST(Experiment, MasstreeSingleQueueShieldsGetsFromScans)
{
    // §6.1/Fig. 7b: occupancy feedback steers gets away from cores
    // busy with 60-120 us scans; static hashing queues gets behind
    // them, inflating the get p99 by an order of magnitude.
    auto p99_of = [&](ni::DispatchMode mode) {
        ExperimentConfig cfg = smallConfig(mode, 2e6);
        cfg.workload = "masstree";
        cfg.warmupRpcs = 500;
        cfg.measuredRpcs = 15000;
        return runExperiment(cfg).point.p99Ns;
    };
    const double single = p99_of(ni::DispatchMode::SingleQueue);
    const double partitioned = p99_of(ni::DispatchMode::StaticHash);
    EXPECT_LT(single * 4.0, partitioned);
}

TEST(Experiment, SweepRunsAllPointsAndOrdersSeries)
{
    core::SweepConfig sweep;
    sweep.base = smallConfig(ni::DispatchMode::SingleQueue, 0.0);
    sweep.base.warmupRpcs = 500;
    sweep.base.measuredRpcs = 5000;
    sweep.arrivalRates = {2e6, 6e6, 12e6};
    sweep.label = "1x16";
    const core::SweepResult result = core::runSweep(sweep);
    ASSERT_EQ(result.series.points.size(), 3u);
    ASSERT_EQ(result.runs.size(), 3u);
    EXPECT_DOUBLE_EQ(result.series.points[0].offeredRps, 2e6);
    EXPECT_DOUBLE_EQ(result.series.points[2].offeredRps, 12e6);
    EXPECT_GT(result.series.points[2].p99Ns,
              result.series.points[0].p99Ns * 0.8);
}

TEST(Experiment, SweepThreadCountDoesNotChangeResults)
{
    core::SweepConfig sweep;
    sweep.base = smallConfig(ni::DispatchMode::SingleQueue, 0.0);
    sweep.base.warmupRpcs = 500;
    sweep.base.measuredRpcs = 4000;
    sweep.arrivalRates = {3e6, 9e6, 15e6, 20e6};
    sweep.label = "1x16";

    sweep.threads = 1;
    const auto sequential = core::runSweep(sweep);
    sweep.threads = 2;
    const auto threaded = core::runSweep(sweep);
    ASSERT_EQ(sequential.series.points.size(),
              threaded.series.points.size());
    for (size_t i = 0; i < sequential.series.points.size(); ++i) {
        EXPECT_DOUBLE_EQ(sequential.series.points[i].p99Ns,
                         threaded.series.points[i].p99Ns);
    }
}

TEST(Experiment, CapacityEstimateIsReasonable)
{
    node::SystemParams sys;
    const double cap =
        core::estimateCapacityRps(sys, app::WorkloadSpec("herd"));
    // ~16 cores / 550 ns => ~29 Mrps (the paper's HERD peak).
    EXPECT_GT(cap, 25e6);
    EXPECT_LT(cap, 33e6);
}

TEST(Experiment, LoadGridSpansRange)
{
    const auto grid = core::loadGrid(0.1, 0.9, 5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.1);
    EXPECT_DOUBLE_EQ(grid.back(), 0.9);
    EXPECT_DOUBLE_EQ(grid[2], 0.5);
}

// ---------------------------------------------------------------------
// Spec-driven workload path (runExperiment(cfg) + per-class stats)
// ---------------------------------------------------------------------

/** Event-for-event equality of two runs (golden bit-identity lock). */
void
expectBitIdentical(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.executedEvents, b.executedEvents);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_DOUBLE_EQ(a.point.p50Ns, b.point.p50Ns);
    EXPECT_DOUBLE_EQ(a.point.p99Ns, b.point.p99Ns);
    EXPECT_DOUBLE_EQ(a.point.meanNs, b.point.meanNs);
    EXPECT_DOUBLE_EQ(a.point.achievedRps, b.point.achievedRps);
    EXPECT_DOUBLE_EQ(a.meanServiceNs, b.meanServiceNs);
    EXPECT_DOUBLE_EQ(a.simulatedUs, b.simulatedUs);
    EXPECT_EQ(a.perCoreServed, b.perCoreServed);
    EXPECT_EQ(a.replySlotStalls, b.replySlotStalls);
}

TEST(SpecWorkload, DefaultSpecBitIdenticalToExplicitHerd)
{
    // The default-constructed spec IS "herd": spelling it out must not
    // perturb a single event at a fixed seed.
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 14e6);
    cfg.measuredRpcs = 10000;
    const RunStats implicit = runExperiment(cfg);
    cfg.workload = "herd";
    const RunStats spelled = runExperiment(cfg);
    expectBitIdentical(implicit, spelled);
    EXPECT_EQ(spelled.workload, "herd");
}

TEST(SpecWorkload, MixOfOneBitIdenticalToPlainWorkload)
{
    // The single-component mix consumes no component-pick randomness
    // and remaps class ids by zero, so "mix:herd=1" IS "herd".
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 14e6);
    cfg.measuredRpcs = 10000;
    cfg.workload = "herd";
    const RunStats plain = runExperiment(cfg);
    cfg.workload = "mix:herd=1";
    const RunStats mix = runExperiment(cfg);
    expectBitIdentical(plain, mix);
}

TEST(SpecWorkload, MixDeterministicForSameSeed)
{
    auto run_once = [] {
        ExperimentConfig cfg =
            smallConfig(ni::DispatchMode::SingleQueue, 2e6);
        cfg.warmupRpcs = 500;
        cfg.measuredRpcs = 6000;
        cfg.workload = "mix:masstree-get=0.998,masstree-scan=0.002";
        return runExperiment(cfg);
    };
    const RunStats a = run_once();
    const RunStats b = run_once();
    expectBitIdentical(a, b);
    ASSERT_EQ(a.perClass.size(), b.perClass.size());
    for (std::size_t i = 0; i < a.perClass.size(); ++i) {
        EXPECT_EQ(a.perClass[i].completions, b.perClass[i].completions);
        EXPECT_DOUBLE_EQ(a.perClass[i].p99Ns, b.perClass[i].p99Ns);
    }
}

TEST(SpecWorkload, MixClassWeightsHonored)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 8e6);
    cfg.warmupRpcs = 1000;
    cfg.measuredRpcs = 20000;
    cfg.workload = "mix:herd=0.7,synthetic=0.3";
    const RunStats r = runExperiment(cfg);
    ASSERT_EQ(r.perClass.size(), 2u);
    EXPECT_EQ(r.perClass[0].name, "herd");
    EXPECT_EQ(r.perClass[1].name, "synthetic");
    const double total = static_cast<double>(
        r.perClass[0].completions + r.perClass[1].completions);
    // Binomial(20000, 0.7): 3 sigma ~ 1%; allow 3%.
    EXPECT_NEAR(static_cast<double>(r.perClass[0].completions) / total,
                0.7, 0.03);
    EXPECT_NEAR(static_cast<double>(r.perClass[1].completions) / total,
                0.3, 0.03);
}

TEST(SpecWorkload, PerClassTailsSeparateGetsFromScans)
{
    // The per-class point of the redesign: scan latency was discarded
    // before; now the scan class carries its own (much larger) tail
    // while gets keep a us-scale one.
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 3e6);
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 12000;
    cfg.workload = "mix:masstree-get=0.998,masstree-scan=0.002";
    const RunStats r = runExperiment(cfg);
    ASSERT_EQ(r.perClass.size(), 2u);
    const core::ClassStats &gets = r.perClass[0];
    const core::ClassStats &scans = r.perClass[1];
    EXPECT_EQ(gets.name, "masstree-get");
    EXPECT_TRUE(gets.latencyCritical);
    EXPECT_EQ(scans.name, "masstree-scan");
    EXPECT_FALSE(scans.latencyCritical);
    EXPECT_GT(scans.completions, 0u);
    // Scans run 60-120 us against ~1.25 us gets: an order of
    // magnitude between the class p99s.
    EXPECT_GT(scans.p99Ns, 10.0 * gets.p99Ns);
    EXPECT_GT(scans.p99Ns, 60000.0);
    // Gets declare the paper's 12.5 us SLO; scans declare none.
    EXPECT_NEAR(gets.sloNs, 12500.0, 500.0);
    EXPECT_DOUBLE_EQ(scans.sloNs, 0.0);
    EXPECT_GT(gets.sloAttainment, 0.95);
    // Measured (post-warmup) class samples partition the measured
    // window exactly.
    EXPECT_EQ(gets.completions + scans.completions, cfg.measuredRpcs);
    // The headline point covers only the critical class.
    EXPECT_EQ(gets.completions, r.point.samples);
}

TEST(SpecWorkload, PerClassStatsPresentForSingleClassWorkloads)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 10e6);
    cfg.measuredRpcs = 10000;
    const RunStats r = runExperiment(cfg);
    ASSERT_EQ(r.perClass.size(), 1u);
    EXPECT_EQ(r.perClass[0].name, "herd");
    EXPECT_EQ(r.perClass[0].completions, cfg.measuredRpcs);
    EXPECT_DOUBLE_EQ(r.perClass[0].p99Ns, r.point.p99Ns);
    EXPECT_NEAR(r.perClass[0].achievedRps, r.point.achievedRps,
                r.point.achievedRps * 1e-9);
}

TEST(SpecWorkload, NodeSamplesAndClassCompletionsCountTheSameRpcs)
{
    // Per-node samples and per-class completions partition the same
    // measured RPCs two ways, so their totals agree on any run: one
    // node with two classes, two nodes sequential, two nodes parallel.
    ExperimentConfig mix = smallConfig(ni::DispatchMode::SingleQueue, 3e6);
    mix.warmupRpcs = 500;
    mix.measuredRpcs = 6000;
    mix.workload = "mix:masstree-get=0.998,masstree-scan=0.002";
    ExperimentConfig pair = smallConfig(ni::DispatchMode::SingleQueue, 20e6);
    pair.warmupRpcs = 500;
    pair.measuredRpcs = 6000;
    pair.cluster.numServerNodes = 2;
    pair.cluster.router = cluster::RouterSpec::parse("rr");
    ExperimentConfig parallel = pair;
    parallel.parallelDomains = 2;
    for (const ExperimentConfig &cfg : {mix, pair, parallel}) {
        const RunStats r = runExperiment(cfg);
        std::uint64_t node_samples = 0;
        for (const core::NodeStats &n : r.perNode)
            node_samples += n.samples;
        std::uint64_t class_completions = 0;
        for (const core::ClassStats &c : r.perClass)
            class_completions += c.completions;
        EXPECT_GE(node_samples, cfg.measuredRpcs);
        EXPECT_EQ(node_samples, class_completions);
    }
}

TEST(SpecWorkloadDeath, UnknownWorkloadIsFatal)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 10e6);
    cfg.workload.name = "nonesuch";
    EXPECT_EXIT((void)runExperiment(cfg), ::testing::ExitedWithCode(1),
                "unknown workload 'nonesuch'.*herd");
}

// ---------------------------------------------------------------------
// failOnVerifyError
// ---------------------------------------------------------------------

/** Echo app whose replies never verify: a corrupted-reply stand-in. */
class CorruptingApp : public app::SyntheticApp
{
  public:
    CorruptingApp() : app::SyntheticApp(sim::SyntheticKind::Fixed) {}

    bool
    verifyReply(const std::vector<std::uint8_t> &,
                const std::vector<std::uint8_t> &) const override
    {
        return false;
    }

    std::string name() const override { return "corrupting"; }
};

// Custom workloads reach runExperiment through the registry — the
// same extension seam examples/custom_workload_playground.cc uses.
const app::WorkloadRegistrar corruptingReg(
    "corrupting", [](const app::WorkloadSpec &) {
        return std::make_unique<CorruptingApp>();
    });

TEST(VerifyErrorDeath, FailOnVerifyErrorIsFatalByDefault)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 5e6);
    cfg.warmupRpcs = 100;
    cfg.measuredRpcs = 500;
    cfg.workload = "corrupting";
    EXPECT_EXIT((void)runExperiment(cfg),
                ::testing::ExitedWithCode(1),
                "failed application-level verification");
}

TEST(VerifyError, OptOutReportsFailuresInStats)
{
    ExperimentConfig cfg =
        smallConfig(ni::DispatchMode::SingleQueue, 5e6);
    cfg.warmupRpcs = 100;
    cfg.measuredRpcs = 500;
    cfg.workload = "corrupting";
    cfg.failOnVerifyError = false;
    const RunStats r = runExperiment(cfg);
    EXPECT_GT(r.verifyFailures, 0u);
}

} // namespace
