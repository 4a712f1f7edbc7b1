/**
 * @file
 * Figure 2a: 99th-percentile latency vs load for five Q x U queuing
 * systems — (1,16), (2,8), (4,4), (8,2), (16,1) — with exponential
 * service time. Pure queuing theory via discrete-event simulation
 * (§2.2). Latency axis in multiples of the mean service time S-bar.
 *
 * Expected shape: performance proportional to U; 1x16 best, 16x1
 * worst; peak throughput under the 10x S-bar SLO 25-73% lower for
 * 16x1.
 */

#include <cstdio>

#include "common.hh"
#include "queueing/model.hh"
#include "sim/distributions.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    const auto args = bench::parseArgs(argc, argv);

    bench::printHeader(
        "Figure 2a: queuing models, exponential service",
        "p99 vs load for QxU in {1x16, 2x8, 4x4, 8x2, 16x1}");

    const sim::ExponentialDist service(600.0);
    const double sbar = service.mean();
    const double capacity = 16.0 / (sbar * 1e-9);

    struct Config
    {
        unsigned q;
        unsigned u;
    };
    const std::vector<Config> configs = {
        {1, 16}, {2, 8}, {4, 4}, {8, 2}, {16, 1}};

    std::vector<stats::Series> all;
    for (const auto &[q, u] : configs) {
        queueing::SweepConfig sweep;
        sweep.numQueues = q;
        sweep.unitsPerQueue = u;
        sweep.loads = core::loadGrid(0.05, 0.95, args.points);
        sweep.service = &service;
        sweep.seed = args.seed;
        sweep.warmupCompletions = args.warmup;
        sweep.measuredCompletions = args.rpcs;
        sweep.label = sim::strfmt("%ux%u", q, u);
        all.push_back(queueing::runLoadSweep(sweep));
        bench::printNormalizedSeries(all.back(), capacity, sbar);
    }

    // Headline check: throughput under SLO (10x S-bar), 16x1 vs 1x16.
    const double slo = 10.0 * sbar;
    bench::printSloSummary("Throughput under SLO (baseline = 16x1)", all,
                           slo);
    const auto best = stats::throughputUnderSlo(all.front(), slo);
    const auto worst = stats::throughputUnderSlo(all.back(), slo);
    // §2.2: 16x1 peak is 25-73% lower than 1x16 across service
    // distributions; exponential sits mid-band.
    bench::claim("16x1 tput drop vs 1x16 (exp, in 25..73%)", 0.49,
                 1.0 - bench::sloRatio(worst, best), 0.5);
    return 0;
}
