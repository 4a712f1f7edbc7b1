/**
 * @file
 * Figure 7c: synthetic fixed and GEV service times on the three
 * hardware configurations.
 *
 * Paper results to reproduce in shape: for fixed, 1x16 = 1.13x / 1.2x
 * over 4x4 / 16x1 under SLO; for GEV the gaps grow to 1.17x / 1.4x;
 * plus up to 4x lower tail before saturation.
 */

#include <cstdio>

#include "common.hh"
#include "sim/distributions.hh"

namespace {

using namespace rpcvalet;

struct FigureResult
{
    std::vector<stats::Series> series; // 1x16, 4x4, 16x1
    double sbarNs = 0.0;
};

FigureResult
runDistribution(const bench::BenchArgs &args, sim::SyntheticKind kind)
{
    // The synthetic workloads are registry specs parameterized by
    // distribution: "synthetic:dist=fixed", "synthetic:dist=gev", ...
    const app::WorkloadSpec workload(
        "synthetic:dist=" + sim::syntheticKindName(kind));
    node::SystemParams sys;
    const double capacity = core::estimateCapacityRps(sys, workload);

    FigureResult out;
    const std::vector<ni::DispatchMode> modes = {
        ni::DispatchMode::SingleQueue, ni::DispatchMode::PerBackendGroup,
        ni::DispatchMode::StaticHash};
    for (const auto mode : modes) {
        core::ExperimentConfig base;
        base.system.mode = mode;
        base.workload = workload;
        auto sweep = bench::makeSweep(
            args, base,
            ni::dispatchModeName(mode) + "_" +
                sim::syntheticKindName(kind),
            capacity, 0.10, 1.02);
        const auto result = core::runSweep(sweep);
        out.series.push_back(result.series);
        if (out.sbarNs == 0.0)
            out.sbarNs = result.runs.front().meanServiceNs;
    }
    return out;
}

void
checkClaims(const FigureResult &r, const char *name, double vs_4x4,
            double vs_16x1)
{
    const double slo = 10.0 * r.sbarNs;
    bench::printSloSummary(
        sim::strfmt("%s: throughput under SLO (baseline = 16x1)", name),
        r.series, slo);
    const auto s_1x16 = stats::throughputUnderSlo(r.series[0], slo);
    const auto s_4x4 = stats::throughputUnderSlo(r.series[1], slo);
    const auto s_16x1 = stats::throughputUnderSlo(r.series[2], slo);
    bench::claim(sim::strfmt("%s: 1x16 / 4x4 ratio", name), vs_4x4,
                 bench::sloRatio(s_1x16, s_4x4), 0.12);
    bench::claim(sim::strfmt("%s: 1x16 / 16x1 ratio", name), vs_16x1,
                 bench::sloRatio(s_1x16, s_16x1), 0.15);
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    // Both the mode and the workload are this figure's axes.
    bench::dropModeAxis(args);
    bench::dropWorkloadAxis(args);

    bench::printHeader("Figure 7c: synthetic distributions (fixed, GEV)",
                       "hardware queuing systems under SLO = 10x S-bar");

    const auto fixed = runDistribution(args, sim::SyntheticKind::Fixed);
    std::printf("%s\n",
                stats::formatSeriesTable("fixed", fixed.series, true)
                    .c_str());
    const auto gev = runDistribution(args, sim::SyntheticKind::Gev);
    std::printf("%s\n",
                stats::formatSeriesTable("gev", gev.series, true)
                    .c_str());

    checkClaims(fixed, "fixed", 1.13, 1.20);
    checkClaims(gev, "gev", 1.17, 1.40);
    return 0;
}
