/**
 * @file
 * Ablation (extension): dispatch policy x arrival burstiness.
 *
 * The paper's evaluation drives every figure with fixed-rate Poisson
 * arrivals (§5), yet the single-queue claim is most stressed by bursty
 * µs-scale traffic — the regime nanoPU and Dagger highlight. This
 * bench sweeps each dispatch policy against arrival processes of
 * increasing burstiness (deterministic CV=0, Poisson CV=1, MMPP
 * bursts, heavy-tailed log-normal gaps) into tail-vs-load curves, and
 * summarizes throughput under a 10x S-bar SLO. Pass --policy=SPEC
 * and/or --arrival=SPEC to narrow either axis to a single spec.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "app/workload.hh"
#include "common.hh"
#include "node/rpc_node.hh"

int
main(int argc, char **argv)
{
    using namespace rpcvalet;
    const auto args = bench::parseArgs(argc, argv);
    bench::printHeader("Ablation: arrival burstiness x dispatch policy",
                       "GEV service; tail-vs-load per (policy, arrival) "
                       "pair; SLO = 10x S-bar");

    const app::WorkloadSpec workload =
        args.workload.empty() ? app::WorkloadSpec("synthetic:dist=gev")
                              : app::WorkloadSpec(args.workload);
    const app::RpcApplicationPtr probe =
        app::WorkloadRegistry::instance().make(workload);
    node::SystemParams sys;
    const double capacity = core::estimateCapacityRps(sys, *probe);
    const double sbar =
        probe->meanProcessingNs() + sim::toNs(node::costs::totalOverhead);

    // Burstiness axis, mildest first. --arrival narrows it to one
    // spec; same for the policy axis and --policy.
    std::vector<std::string> arrivals = {
        "deterministic",
        "poisson",
        "mmpp2:burst=0.1,ratio=8,dwell=20us",
        "lognormal:cv=4",
    };
    if (!args.arrival.empty())
        arrivals = {args.arrival};
    std::vector<std::string> policies = {"greedy", "rr", "pow2"};
    if (!args.policy.empty())
        policies = {args.policy};

    // Per-combination configs carry their own specs, so makeSweep
    // must not re-apply the narrowing flags on top.
    bench::BenchArgs sweep_args = args;
    sweep_args.policy.clear();
    sweep_args.arrival.clear();
    sweep_args.workload.clear();

    std::vector<stats::Series> all;
    for (const std::string &policy : policies) {
        for (const std::string &arrival : arrivals) {
            core::ExperimentConfig base;
            base.system.policy = ni::PolicySpec::parse(policy);
            base.arrival = net::ArrivalSpec::parse(arrival);
            base.workload = workload;
            const std::string label = policy + " | " + arrival;
            auto sweep = bench::makeSweep(sweep_args, base, label,
                                          capacity, 0.3, 0.9);
            const auto result = core::runSweep(sweep);
            bench::printNormalizedSeries(result.series, capacity, sbar);
            all.push_back(result.series);
        }
    }

    // Ratios are taken against the LAST series; with the default axes
    // that is pow2 under the burstiest arrivals.
    bench::printSloSummary(
        "Throughput under SLO (p99 <= 10x S-bar) across burstiness",
        all, 10.0 * sbar);
    return 0;
}
