/**
 * @file
 * Figure 2c: the partitioned (16x1) model under the four §5 service
 * distributions. Expected shape: same variance ordering as Fig. 2b
 * but with much higher tails and earlier SLO violation — the load
 * imbalance RPCValet eliminates.
 */

#include "common.hh"
#include "queueing/model.hh"
#include "sim/distributions.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    const auto args = bench::parseArgs(argc, argv);

    bench::printHeader("Figure 2c: model 16x1, four service distributions",
                       "p99 vs load; higher variance => earlier "
                       "saturation than Fig. 2b");

    std::vector<stats::Series> all;
    std::vector<double> sbars;
    for (const auto kind : sim::allSyntheticKinds()) {
        const auto dist = sim::makeSynthetic(kind);
        const double sbar = dist->mean();
        const double capacity = 16.0 / (sbar * 1e-9);
        queueing::SweepConfig sweep;
        sweep.numQueues = 16;
        sweep.unitsPerQueue = 1;
        sweep.loads = core::loadGrid(0.05, 0.95, args.points);
        sweep.service = dist.get();
        sweep.seed = args.seed;
        sweep.warmupCompletions = args.warmup;
        sweep.measuredCompletions = args.rpcs;
        sweep.label = sim::syntheticKindName(kind) + "-16x1";
        all.push_back(queueing::runLoadSweep(sweep));
        sbars.push_back(sbar);
        bench::printNormalizedSeries(all.back(), capacity, sbar);
    }

    // Claim: for each distribution, 16x1 meets the 10x S-bar SLO at a
    // strictly lower load than 1x16 would (compare against the same
    // sweep on one queue).
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto dist =
            sim::makeSynthetic(sim::allSyntheticKinds()[i]);
        queueing::SweepConfig sweep;
        sweep.numQueues = 1;
        sweep.unitsPerQueue = 16;
        sweep.loads = core::loadGrid(0.05, 0.95, args.points);
        sweep.service = dist.get();
        sweep.seed = args.seed;
        sweep.warmupCompletions = args.warmup;
        sweep.measuredCompletions = args.rpcs;
        sweep.label = "1x16";
        const auto single = queueing::runLoadSweep(sweep);
        const double slo = 10.0 * sbars[i];
        const auto multi_slo = stats::throughputUnderSlo(all[i], slo);
        const auto single_slo = stats::throughputUnderSlo(single, slo);
        // §2.2: peak throughput 25-73% lower; variance dependent.
        bench::claim(all[i].label + ": 16x1 tput drop vs 1x16 "
                                    "(in 25..73%)",
                     0.49, 1.0 - bench::sloRatio(multi_slo, single_slo),
                     0.5);
    }
    return 0;
}
