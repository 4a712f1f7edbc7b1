/**
 * @file
 * Declarative scenario files: a whole experiment matrix in one
 * checked-in text file.
 *
 * A scenario file is a minimal INI subset (no external dependencies):
 * `[section]` headers, `key = value` lines, and comments starting
 * with '#' or ';'. It maps directly onto core::ExperimentConfig — the
 * file is configuration, not code — and adds the two things a config
 * struct cannot express: a sweep matrix and SLO declarations.
 *
 *   [experiment]
 *   name     = herd-baseline
 *   workload = herd                  # any registered workload spec
 *   arrival  = poisson
 *   policy   = greedy
 *   mode     = 1x16                  # 1x16 | 4x4 | 16x1 | sw-1x16
 *   warmup   = 20000
 *   measured = 200000
 *   seed     = 1
 *   parallel_domains = 0             # 0 = one event wheel (exact);
 *                                    # N = conservative PDES workers
 *
 *   [cluster]
 *   nodes    = 4
 *   router   = shard
 *   timeout  = 50us
 *
 *   [connections]
 *   clients  = 2048                  # logical clients (enables the
 *                                    # connection-management subsystem)
 *   scheduler = grouped:size=40,slice=100us
 *   qp_capacity = 64                 # server QP cache (0 = derive)
 *
 *   [sweep]
 *   load     = 0.2 | 0.5 | 0.8       # fraction of estimated capacity
 *   policy   = greedy | jbsq:d=2     # any axis may be a '|' list
 *   scheduler = all | grouped:size=40,slice=100us
 *                                    # conn-scheduler axis; needs an
 *                                    # active [connections] population
 *
 *   [slo]
 *   tier0    = 15us                  # p99 bound per request class
 *
 *   [output]
 *   dir      = out/herd-baseline
 *
 * The client turnaround (net::clientTurnaround), the QP cold-fetch
 * penalty (node::qpColdFetch) and the timeout-sweep period (a quarter
 * of the timeout) are model constants, not keys; the shard router
 * partitions the keyspace once per server node.
 *
 * Lists use '|' (NOT ',') as the separator, because component spec
 * strings carry commas ("mix:get=0.9,scan=0.1"). The matrix is the
 * cross product of every axis in canonical order: workload x policy x
 * arrival x router x scheduler x nodes x load. The per-point seed is NOT
 * decorrelated across the matrix, so a single-point scenario is
 * bit-identical to the equivalent hand-built ExperimentConfig.
 *
 * Values read through the shared parsers in sim/spec.hh: integers are
 * plain decimal (no sign, fraction or exponent), reals finite,
 * durations a bare ns count or ns/us/ms, booleans true/false. Every
 * value is validated at parse time — each spec built through its
 * registry (core::checkPolicy and friends) — under a sim::ErrorContext
 * naming the file, line, and offending `key = value`, so a typo dies
 * with "scenario.scn:12 (policy = jbqs:d=2): ..." rather than deep
 * inside a later run.
 */

#ifndef RPCVALET_SCENARIO_SCENARIO_HH
#define RPCVALET_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace rpcvalet::scenario {

/** A declared p99 bound for one request class ([slo] section). */
struct SloBound
{
    /** Request-class name as the workload declares it ("tier0"). */
    std::string className;
    /** p99 latency bound, ns. */
    double boundNs = 0.0;
};

/** A parsed scenario: base config + sweep axes + SLOs + output. */
struct Scenario
{
    /** Scenario name ([experiment] name; default: file stem). */
    std::string name;
    /** Path the scenario was parsed from ("<string>" for text). */
    std::string source;

    /** Fully populated single-run template. Axis values override the
     *  corresponding fields per matrix point. */
    core::ExperimentConfig base{};

    /** Sweep axes; an empty axis means "use the base value". */
    std::vector<std::string> workloads;
    std::vector<std::string> policies;
    std::vector<std::string> arrivals;
    std::vector<std::string> routers;
    /** Connection-scheduler axis ("all" | "grouped:..."); requires an
     *  active [connections] client population. */
    std::vector<std::string> schedulers;
    std::vector<std::uint32_t> nodeCounts;

    /** Load axis: fractions of estimated capacity (exclusive with
     *  absoluteRps; exactly one of the two is non-empty). */
    std::vector<double> loadFractions;
    /** Load axis: absolute offered rates, requests per second. */
    std::vector<double> absoluteRps;

    /** Worker threads for independent matrix points. */
    unsigned threads = 1;

    /** Declared per-class p99 bounds, evaluated post-run. */
    std::vector<SloBound> slos;

    /** Output directory for JSON and metrics files. */
    std::string outputDir = "scenario-out";
    /** Emit per-point JSON + summary.json. */
    bool writeJson = true;
    /** Emit the Prometheus text-exposition metrics file. */
    bool writePrometheus = true;
};

/** One expanded matrix point: a runnable config plus its axis tags. */
struct ScenarioPoint
{
    /** Position in canonical matrix order (stable across runs). */
    std::size_t index = 0;
    core::ExperimentConfig config{};
    /** Axis values this point was expanded from (canonical specs). */
    std::string workload;
    std::string policy;
    std::string arrival;
    std::string router;
    /** Connection-scheduler spec ("" when the subsystem is off). */
    std::string scheduler;
    std::uint32_t nodes = 1;
    /** Load fraction behind config.arrivalRps (0 = absolute rps). */
    double loadFraction = 0.0;
};

/** Parse a scenario file; every diagnostic carries file:line. */
Scenario parseScenarioFile(const std::string &path);

/** Parse scenario text (tests); @p source labels diagnostics. */
Scenario parseScenarioText(const std::string &text,
                           const std::string &source);

/**
 * Expand the sweep matrix in canonical order (workload x policy x
 * arrival x router x scheduler x nodes x load, load innermost).
 * Fractional load
 * points resolve against core::estimateCapacityRps for the point's
 * workload, scaled by its node count.
 */
std::vector<ScenarioPoint> expandMatrix(const Scenario &scn);

} // namespace rpcvalet::scenario

#endif // RPCVALET_SCENARIO_SCENARIO_HH
