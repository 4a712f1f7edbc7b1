/**
 * @file
 * Figure 9: RPCValet (full-system simulation, 1x16) against the
 * theoretical 1x16 queuing model, per §6.3's methodology: the model's
 * service time is S-bar with a distributed part D (the synthetic
 * processing time) and a fixed part S-bar - D (the measured loop
 * overhead).
 *
 * Paper result to reproduce: the implementation tracks the model
 * within 3% (fixed) to 15% (GEV), the gap coming from contention the
 * model does not capture.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hh"
#include "sim/distributions.hh"
#include "queueing/model.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    auto args = bench::parseArgs(argc, argv);
    // The workload is this figure's axis.
    bench::dropWorkloadAxis(args);

    bench::printHeader(
        "Figure 9: RPCValet vs theoretical 1x16 queuing model",
        "p99 vs load, four distributions; gap expected within 3-15%");

    double worst_gap = 0.0;
    bool all_met = true;
    for (const auto kind : sim::allSyntheticKinds()) {
        const auto name = sim::syntheticKindName(kind);

        // --- full-system simulation sweep (1x16) ---
        const app::WorkloadSpec workload("synthetic:dist=" + name);
        node::SystemParams sys;
        const double capacity = core::estimateCapacityRps(sys, workload);
        core::ExperimentConfig base;
        base.workload = workload;
        auto sweep = bench::makeSweep(args, base, name + "-sim",
                                      capacity, 0.10, 0.95);
        const auto sim_result = core::runSweep(sweep);
        const double sbar_ns = sim_result.runs.front().meanServiceNs;

        // --- §6.3 split-service model: D ~ dist, S-bar - D fixed ---
        const auto processing = sim::makeSynthetic(kind);
        const double d_mean = processing->mean();
        sim::ShiftedDist model_service(std::max(sbar_ns - d_mean, 0.0),
                                       processing->clone());
        queueing::SweepConfig model_sweep;
        model_sweep.numQueues = 1;
        model_sweep.unitsPerQueue = sys.numCores();
        for (const auto &rate : sweep.arrivalRates)
            model_sweep.loads.push_back(
                rate / (sys.numCores() / (model_service.mean() * 1e-9)));
        model_sweep.service = &model_service;
        model_sweep.seed = args.seed;
        model_sweep.warmupCompletions = args.warmup;
        model_sweep.measuredCompletions = args.rpcs;
        model_sweep.label = name + "-model";
        const auto model_series = queueing::runLoadSweep(model_sweep);

        // --- print both, normalized as in the paper ---
        bench::printNormalizedSeries(model_series, capacity, sbar_ns);
        bench::printNormalizedSeries(sim_result.series, capacity,
                                     sbar_ns);

        // --- §6.3 gap metric: performance (throughput under the
        // 10x S-bar SLO) of the implementation vs the model ---
        const double slo = 10.0 * sbar_ns;
        const auto model_slo =
            stats::throughputUnderSlo(model_series, slo);
        const auto sim_slo =
            stats::throughputUnderSlo(sim_result.series, slo);
        const double ratio = bench::sloRatio(sim_slo, model_slo);
        if (std::isnan(ratio)) {
            // One unmeasured distribution leaves the worst case
            // unmeasured.
            std::printf("[info] %-12s model or sim never met the SLO\n",
                        name.c_str());
            all_met = false;
            continue;
        }
        const double gap = std::max(1.0 - ratio, 0.0);
        std::printf("[info] %-12s tput@SLO model %.2f Mrps, sim %.2f "
                    "Mrps -> gap %.1f%%\n",
                    name.c_str(), model_slo.throughputRps / 1e6,
                    sim_slo.throughputRps / 1e6, 100.0 * gap);
        worst_gap = std::max(worst_gap, gap);
    }

    // §6.3: "RPCValet performs as close as 3% to 1x16, and within 15%
    // in the worst case". Allow headroom for sampling noise.
    std::printf("[info] worst-case gap across distributions: %.1f%%\n",
                100.0 * worst_gap);
    bench::claim("worst-case sim-vs-model gap (frac)", 0.15,
                 all_met ? worst_gap : bench::notMet, 1.0);
    return 0;
}
