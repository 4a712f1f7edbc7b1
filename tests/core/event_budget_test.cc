/**
 * @file
 * Simulator events per RPC: a budget that may only fall.
 *
 * The event count of a fixed-seed run is exact for a given tree, so it
 * can be gated without the noise of wall-clock numbers. Each case runs
 * a benchmark workload's configuration (perfsuite/suite.cc) at a small
 * size and fails if the run executes more events than its budget. A
 * change that lowers a count lowers the budget here in the same
 * commit, so the next rise shows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/experiment.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

struct Budget
{
    const char *name;
    const char *workload;
    std::uint32_t nodes;
    double load;
    bool chaos;
    std::uint64_t warmup;
    std::uint64_t measured;
    /** Events the run may execute at most (its exact count today). */
    std::uint64_t maxEvents;
};

core::ExperimentConfig
configFor(const Budget &b)
{
    core::ExperimentConfig cfg;
    cfg.workload = b.workload;
    cfg.system.seed = 1;
    cfg.cluster.numServerNodes = b.nodes;
    if (b.nodes > 1)
        cfg.cluster.router = "bounded-load:c=1.25";
    cfg.arrivalRps = b.load * b.nodes *
                     core::estimateCapacityRps(cfg.system, cfg.workload);
    cfg.warmupRpcs = b.warmup;
    cfg.measuredRpcs = b.measured;
    cfg.failOnVerifyError = false;
    if (b.chaos) {
        cfg.cluster.requestTimeout = sim::microseconds(30.0);
        cfg.cluster.recoveryAfter = sim::microseconds(200.0);
        cfg.faults = {"packet-loss:p=0.002",
                      "packet-delay:add=200ns,jitter=100ns",
                      "crash:node=3,at=200us,recover_after=200us"};
        cfg.retry.maxAttempts = 6;
        cfg.retry.baseBackoff = sim::microseconds(5.0);
        cfg.retry.multiplier = 2.0;
        cfg.retry.jitter = 0.2;
        cfg.retry.hedgeAfter = sim::microseconds(20.0);
    }
    return cfg;
}

/** gtest prints a failing case's parameter by name. */
void
PrintTo(const Budget &b, std::ostream *os)
{
    *os << b.name;
}

class EventBudget : public ::testing::TestWithParam<Budget>
{
};

TEST_P(EventBudget, EventsPerRpcDoNotRise)
{
    const Budget &b = GetParam();
    const core::RunStats r = core::runExperiment(configFor(b));
    ASSERT_GE(r.completions, b.warmup + b.measured);
    const double perRpc = static_cast<double>(r.executedEvents) /
                          static_cast<double>(r.completions);
    RecordProperty("events_per_rpc", std::to_string(perRpc));
    EXPECT_LE(r.executedEvents, b.maxEvents)
        << b.name << ": " << r.executedEvents << " events for "
        << r.completions << " RPCs (" << perRpc << " per RPC)";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EventBudget,
    ::testing::Values(
        // 17.0 per RPC: the dispatcher delivers to the core and the
        // NI hands each train to the fabric with its departure tick
        // (was 20.0).
        Budget{"herd", "herd", 1, 0.8, false, 1000, 20000, 357043},
        // 17.5 per RPC: one event per message train (was 68.1, then
        // 20.5).
        Budget{"herd1536rw", "herd:value_bytes=1536,read_ratio=0.5", 1, 0.8,
               false, 300, 6000, 110301},
        // 20.7 per RPC (was 21.7).
        Budget{"chaos", "herd", 4, 0.4, true, 800, 16000, 346983}),
    [](const ::testing::TestParamInfo<Budget> &param_info) {
        return std::string(param_info.param.name);
    });

} // namespace
