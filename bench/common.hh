/**
 * @file
 * Shared plumbing for the figure-reproduction benches: argument
 * parsing, fast-mode scaling, normalized printing, claim checks, and
 * machine-readable JSON result emission.
 *
 * Every bench accepts:
 *   --points=N    load points per curve (integer in [1, 2^20])
 *   --rpcs=N      measured RPCs per point (>= 1)
 *   --warmup=N    completions discarded before measurement per point
 *   --seed=N      experiment seed (unsigned 64-bit)
 *   --threads=N   worker threads for sweep points (integer in
 *                 [1, 1024])
 *                 Numeric values are plain decimal integers
 *                 (sim::parseUint): a sign, a fraction, an exponent,
 *                 junk or an out-of-range value is fatal, naming the
 *                 flag.
 *   --policy=SPEC dispatch-policy spec (registry string such as
 *                 "greedy" or "jbsq:d=2"); empty keeps each bench's
 *                 default. Overrides the policy in every
 *                 simulator-driven bench (via applyOverrides);
 *                 ablation_dispatch narrows its policy sweep to just
 *                 this spec. The analytical queueing-model benches
 *                 (fig2a/2b/2c, fig6) have no dispatcher and ignore
 *                 it, like --rpcs.
 *   --arrival=SPEC arrival-process spec (registry string such as
 *                 "poisson", "mmpp2:burst=0.1,ratio=10",
 *                 "lognormal:cv=4", "trace:file=gaps.txt"); empty
 *                 keeps each bench's default (the paper's Poisson).
 *                 ablation_burstiness narrows its arrival sweep to
 *                 just this spec. Ignored by the analytical benches.
 *   --workload=SPEC workload spec (registry string such as "herd",
 *                 "masstree:scan_ratio=0.02", "synthetic:dist=gev",
 *                 "mix:masstree-get=0.998,masstree-scan=0.002");
 *                 empty keeps each bench's default. Overrides the
 *                 workload in every simulator-driven bench via
 *                 applyOverrides; benches that sweep workloads as
 *                 their figure axis (fig7c, fig8, fig9,
 *                 summary_table) keep their axis and ignore it, like
 *                 the analytical benches.
 *   --mode=NAME   queuing topology ("1x16", "4x4", "16x1",
 *                 "sw-1x16"); empty keeps each bench's default.
 *                 Benches whose figure axis is the mode (fig7a/b/c,
 *                 fig8, latency_breakdown, summary_table) ignore it.
 *   --nodes=N     server nodes behind the cluster router (fatal unless
 *                 an integer in [1, 64]); absent keeps each bench's
 *                 default. cluster_scaling sweeps its own node counts
 *                 and uses this as the top of its sweep instead.
 *   --router=SPEC cluster-router spec (registry string such as
 *                 "random", "rr", "shard", "bounded-load:c=1.25");
 *                 empty keeps each bench's default. cluster_scaling
 *                 narrows its router sweep to just this spec. With the
 *                 spec flags above, a run is fully declarative:
 *                 --mode, --policy, --arrival, --workload, --nodes,
 *                 --router.
 *   --parallel-domains=N  run each experiment's event domains on N
 *                 workers (conservative PDES); 0 (default) keeps the
 *                 exact sequential single-wheel path. Applied via
 *                 applyOverrides like the spec flags.
 *   --fault=SPEC  inject a fault into every experiment (registry
 *                 string such as "crash:node=0,at=100us" or
 *                 "packet-loss:p=0.01"); repeatable — each occurrence
 *                 adds one fault. Applied via applyOverrides; fatal on
 *                 an unknown name or malformed parameters.
 *   --connections=SPEC  connection-management config: a scheduler spec
 *                 ("all" or "grouped:size=40,slice=100us") extended
 *                 with population keys, e.g.
 *                 "grouped:clients=2048,size=40,slice=100us" or
 *                 "all:clients=2048,qp_capacity=64".
 *                 'clients' is required; empty/absent keeps the
 *                 subsystem off (the pre-PR legacy path, bit
 *                 identical). Applied via applyOverrides.
 *   --list-specs  print every registered component name across all six
 *                 spec registries (policy, arrival, workload, router,
 *                 fault, conn) and exit.
 *   --json=FILE   write results (series, claims, args, perf) as JSON
 *                 at exit — the machine-readable feed behind CI's
 *                 bench-results artifact and the BENCH_*.json perf
 *                 trajectory. The "perf" object carries wall_seconds,
 *                 sim_events and events_per_sec; the same numbers are
 *                 printed in every bench's exit summary ([perf] line)
 *                 so kernel throughput is tracked per run.
 * and honors RPCVALET_BENCH_FAST=1 (quarter-size runs for smoke use).
 * Fast mode only shrinks the *defaults*: an explicit --points/--rpcs/
 * --warmup always wins, so "RPCVALET_BENCH_FAST=1 bench --points=2
 * --rpcs=2000" runs exactly 2 tiny points.
 */

#ifndef RPCVALET_BENCH_COMMON_HH
#define RPCVALET_BENCH_COMMON_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/logging.hh"
#include "stats/series.hh"
#include "stats/slo.hh"

namespace rpcvalet::bench {

/** Common bench knobs. */
struct BenchArgs
{
    std::size_t points = 10;
    std::uint64_t rpcs = 100000;
    std::uint64_t warmup = 10000;
    std::uint64_t seed = 42;
    unsigned threads = 2;
    bool fast = false;
    /** Dispatch-policy spec override; empty = bench default. */
    std::string policy;
    /** Arrival-process spec override; empty = bench default. */
    std::string arrival;
    /** Workload spec override; empty = bench default. */
    std::string workload;
    /** Dispatch-mode override ("1x16", ...); empty = bench default. */
    std::string mode;
    /** Server-node-count override; 0 = bench default. */
    std::uint32_t nodes = 0;
    /** Cluster-router spec override; empty = bench default. */
    std::string router;
    /** Domain workers per experiment (conservative PDES); 0 = the
     *  sequential single-wheel path. Fatal unless in [0, 1024]. */
    unsigned parallelDomains = 0;
    /** Fault specs injected into every experiment (--fault=, one spec
     *  per occurrence); empty = no injected faults. */
    std::vector<std::string> faults;
    /** Connection-management config (--connections=); empty keeps the
     *  subsystem off (the legacy client model). */
    std::string connections;
    /** JSON results path; empty = no JSON output. */
    std::string json;
};

/**
 * Parse argv + RPCVALET_BENCH_FAST. Unknown flags are fatal, and so is
 * a malformed value: numbers read through sim::parseUint, and each
 * spec flag (--policy, --arrival, --workload, --router, --fault,
 * --connections) is parsed and built through its registry right here
 * (core::checkPolicy and friends), each under an ErrorContext naming
 * the flag.
 */
BenchArgs parseArgs(int argc, char **argv);

// The apply*Override helpers copy flags parseArgs already checked.

/** Apply --policy to @p cfg when set. */
void applyPolicyOverride(const BenchArgs &args,
                         core::ExperimentConfig &cfg);

/** Apply --arrival to @p cfg when set. */
void applyArrivalOverride(const BenchArgs &args,
                          core::ExperimentConfig &cfg);

/** Apply --workload to @p cfg when set. */
void applyWorkloadOverride(const BenchArgs &args,
                           core::ExperimentConfig &cfg);

/** Apply --mode to @p cfg when set (fatal on an unknown mode name). */
void applyModeOverride(const BenchArgs &args,
                       core::ExperimentConfig &cfg);

/** Apply --nodes / --router to @p cfg when set. */
void applyClusterOverride(const BenchArgs &args,
                          core::ExperimentConfig &cfg);

/**
 * Append every --fault spec to @p cfg.faults (node/core range checks
 * run when the experiment resolves the specs against its cluster
 * shape).
 */
void applyFaultOverride(const BenchArgs &args,
                        core::ExperimentConfig &cfg);

/** Apply --connections to @p cfg when set. */
void applyConnectionsOverride(const BenchArgs &args,
                              core::ExperimentConfig &cfg);

/**
 * Apply every declarative override (--mode, --policy, --arrival,
 * --workload, --nodes, --router, --fault, --connections). makeSweep
 * calls this on the sweep base; benches that build ExperimentConfigs
 * directly call it themselves.
 */
void applyOverrides(const BenchArgs &args, core::ExperimentConfig &cfg);

/**
 * Benches whose figure axis is the dispatch mode call this right
 * after parseArgs: a provided --mode is still validated (typos die
 * loudly) but then dropped with a warning, since the bench sweeps
 * every mode itself.
 */
void dropModeAxis(BenchArgs &args);

/** Same for benches whose figure axis is the workload (parseArgs has
 *  already checked the spec). */
void dropWorkloadAxis(BenchArgs &args);

/** Print the standard figure banner. */
void printHeader(const std::string &figure, const std::string &summary);

/**
 * Print a curve normalized the way Fig. 2 / Fig. 9 are plotted:
 * x = load fraction of capacity, y = p99 in multiples of S-bar.
 * Also records the series for --json output.
 */
void printNormalizedSeries(const stats::Series &series,
                           double capacity_rps, double sbar_ns);

/**
 * Print throughput-under-SLO for a set of series plus the ratio of
 * each to the LAST series (the paper's baselines are listed last).
 * Also records the series for --json output.
 */
void printSloSummary(const std::string &title,
                     const std::vector<stats::Series> &series,
                     double slo_ns);

/**
 * Record a paper-vs-measured claim line (also echoed to stdout):
 * e.g. claim("1x16 vs 16x1 tput", 1.18, measured, 0.25).
 * A claim "holds" when measured is within rel_tol of expected. A
 * measured value of notMet records the claim as NOT MET: it has no
 * measured value ("measured": null) and does not hold. Claims land in
 * the --json report too.
 */
void claim(const std::string &what, double paper_value,
           double measured_value, double rel_tol);

/** The measured value of a claim whose configurations never met their
 *  SLO in the sweep, so there is nothing to compare (see claim()). */
inline constexpr double notMet = std::numeric_limits<double>::quiet_NaN();

/** @p a's throughput under SLO over @p b's, or notMet unless both met
 *  the SLO somewhere in their sweeps. */
double sloRatio(const stats::SloResult &a, const stats::SloResult &b);

/**
 * Record a series for --json output without printing it (printers
 * that already record call this internally; series are keyed by
 * label, so re-recording a label updates it in place).
 */
void recordJsonSeries(const stats::Series &series,
                      double capacity_rps = 0.0, double sbar_ns = 0.0);

/**
 * Print a run's per-request-class breakdown (throughput, p50/p99/
 * p99.9, SLO attainment — scans and other non-critical classes
 * included) and record it under @p label in the --json report's
 * "class_stats" array. Labels are unique keys: re-recording a label
 * updates it in place.
 */
void printClassStats(const std::string &label,
                     const std::vector<core::ClassStats> &classes);

/** Record per-class stats for --json output without printing. */
void recordClassStats(const std::string &label,
                      const std::vector<core::ClassStats> &classes);

/**
 * Build a sweep over utilization levels of an estimated capacity —
 * spec-driven: each point instantiates base.workload (after
 * applyOverrides) through the app::WorkloadRegistry.
 */
core::SweepConfig
makeSweep(const BenchArgs &args, const core::ExperimentConfig &base,
          const std::string &label, double capacity_rps, double lo_util,
          double hi_util);

/**
 * Record a parallel-vs-sequential kernel-throughput measurement for
 * the --json report's "perf" object: emits an
 * "events_per_sec_parallel" series (x = domain workers, y = aggregate
 * events/s) plus the speedup of the widest point over workers = 1.
 * Also echoed to stdout as a [perf] line.
 */
void recordParallelPerf(const std::vector<unsigned> &workers,
                        const std::vector<double> &eventsPerSec);

} // namespace rpcvalet::bench

#endif // RPCVALET_BENCH_COMMON_HH
