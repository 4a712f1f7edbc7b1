#include "common.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "app/workload.hh"
#include "cluster/router.hh"
#include "conn/conn.hh"
#include "core/registry_listing.hh"
#include "fault/fault.hh"
#include "net/arrival.hh"
#include "sim/build_info.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"

namespace rpcvalet::bench {

namespace {

using WallClock = std::chrono::steady_clock;

/** Bench start (set in parseArgs), for the wall-clock perf summary. */
WallClock::time_point g_benchStart;

/**
 * Everything destined for the --json report, accumulated as the bench
 * prints and written once at exit. Series are keyed by label so a
 * curve printed through several helpers lands in the report once.
 */
struct JsonReport
{
    bool enabled = false;
    std::string path;
    std::string benchName;
    BenchArgs args;

    struct SeriesEntry
    {
        stats::Series series;
        double capacityRps = 0.0;
        double sbarNs = 0.0;
    };
    std::vector<SeriesEntry> series;

    struct ClaimEntry
    {
        std::string what;
        double paper = 0.0;
        double measured = 0.0;
        double relTol = 0.0;
        bool holds = false;
    };
    std::vector<ClaimEntry> claims;

    struct ClassStatsEntry
    {
        std::string label;
        std::vector<core::ClassStats> classes;
    };
    std::vector<ClassStatsEntry> classStats;
};

JsonReport &
report()
{
    static JsonReport r;
    return r;
}

using sim::jsonEscape;
using sim::jsonNumber;

/**
 * Wall-clock seconds and simulator events/sec for this bench run —
 * the perf trajectory every bench reports (printed at exit, and
 * recorded in the --json "perf" object so BENCH_*.json artifacts
 * track kernel throughput across PRs).
 */
struct PerfSummary
{
    double wallSeconds = 0.0;
    std::uint64_t simEvents = 0;
    double eventsPerSec = 0.0;
};

PerfSummary
perfSummary()
{
    PerfSummary p;
    p.wallSeconds =
        std::chrono::duration<double>(WallClock::now() - g_benchStart)
            .count();
    p.simEvents = core::totalSimulatedEvents();
    if (p.wallSeconds > 0.0)
        p.eventsPerSec =
            static_cast<double>(p.simEvents) / p.wallSeconds;
    return p;
}

void
printPerfSummary()
{
    const PerfSummary p = perfSummary();
    std::printf("[perf] %.2f s wall, %.3g simulator events, "
                "%.3g events/s\n",
                p.wallSeconds, static_cast<double>(p.simEvents),
                p.eventsPerSec);
}

void
writeJsonReport()
{
    const JsonReport &r = report();
    if (!r.enabled) {
        printPerfSummary();
        return;
    }
    std::FILE *f = std::fopen(r.path.c_str(), "w");
    if (f == nullptr) {
        sim::warn("--json: cannot write '" + r.path + "'");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n",
                 jsonEscape(r.benchName).c_str());
    // Provenance stamp: which build produced these numbers (the same
    // stamp the scenario runner's summary.json carries), so archived
    // BENCH_*.json artifacts stay traceable to a commit.
    const sim::BuildInfo &bi = sim::buildInfo();
    std::fprintf(f,
                 "  \"meta\": {\"build_type\": \"%s\", "
                 "\"git_sha\": \"%s\", \"timestamp\": \"%s\"},\n",
                 jsonEscape(bi.buildType).c_str(),
                 jsonEscape(bi.gitSha).c_str(),
                 jsonEscape(sim::iso8601UtcNow()).c_str());
    std::fprintf(f,
                 "  \"args\": {\"points\": %zu, \"rpcs\": %llu, "
                 "\"warmup\": %llu, \"seed\": %llu, \"fast\": %s, "
                 "\"policy\": \"%s\", \"arrival\": \"%s\", "
                 "\"workload\": \"%s\", \"mode\": \"%s\", "
                 "\"nodes\": %u, \"router\": \"%s\", "
                 "\"parallel_domains\": %u, "
                 "\"connections\": \"%s\"},\n",
                 r.args.points,
                 static_cast<unsigned long long>(r.args.rpcs),
                 static_cast<unsigned long long>(r.args.warmup),
                 static_cast<unsigned long long>(r.args.seed),
                 r.args.fast ? "true" : "false",
                 jsonEscape(r.args.policy).c_str(),
                 jsonEscape(r.args.arrival).c_str(),
                 jsonEscape(r.args.workload).c_str(),
                 jsonEscape(r.args.mode).c_str(),
                 r.args.nodes, jsonEscape(r.args.router).c_str(),
                 r.args.parallelDomains,
                 jsonEscape(r.args.connections).c_str());
    std::fputs("  \"series\": [", f);
    for (std::size_t i = 0; i < r.series.size(); ++i) {
        const auto &entry = r.series[i];
        std::fprintf(f, "%s\n    {\"label\": \"%s\", ",
                     i == 0 ? "" : ",",
                     jsonEscape(entry.series.label).c_str());
        std::fputs("\"capacity_rps\": ", f);
        jsonNumber(f, entry.capacityRps);
        std::fputs(", \"sbar_ns\": ", f);
        jsonNumber(f, entry.sbarNs);
        std::fputs(", \"points\": [", f);
        for (std::size_t p = 0; p < entry.series.points.size(); ++p) {
            const auto &pt = entry.series.points[p];
            std::fprintf(f, "%s\n      {\"offered_rps\": ",
                         p == 0 ? "" : ",");
            jsonNumber(f, pt.offeredRps);
            std::fputs(", \"achieved_rps\": ", f);
            jsonNumber(f, pt.achievedRps);
            std::fputs(", \"mean_ns\": ", f);
            jsonNumber(f, pt.meanNs);
            std::fputs(", \"p50_ns\": ", f);
            jsonNumber(f, pt.p50Ns);
            std::fputs(", \"p90_ns\": ", f);
            jsonNumber(f, pt.p90Ns);
            std::fputs(", \"p99_ns\": ", f);
            jsonNumber(f, pt.p99Ns);
            std::fprintf(f, ", \"samples\": %llu}",
                         static_cast<unsigned long long>(pt.samples));
        }
        std::fputs("]}", f);
    }
    std::fputs("],\n  \"class_stats\": [", f);
    for (std::size_t i = 0; i < r.classStats.size(); ++i) {
        const auto &entry = r.classStats[i];
        std::fprintf(f, "%s\n    {\"label\": \"%s\", \"classes\": [",
                     i == 0 ? "" : ",",
                     jsonEscape(entry.label).c_str());
        for (std::size_t c = 0; c < entry.classes.size(); ++c) {
            const core::ClassStats &cs = entry.classes[c];
            std::fprintf(f, "%s\n      {\"class\": \"%s\", "
                            "\"critical\": %s, \"slo_ns\": ",
                         c == 0 ? "" : ",", jsonEscape(cs.name).c_str(),
                         cs.latencyCritical ? "true" : "false");
            jsonNumber(f, cs.sloNs);
            std::fprintf(f, ", \"completions\": %llu",
                         static_cast<unsigned long long>(
                             cs.completions));
            std::fputs(", \"achieved_rps\": ", f);
            jsonNumber(f, cs.achievedRps);
            std::fputs(", \"mean_ns\": ", f);
            jsonNumber(f, cs.meanNs);
            std::fputs(", \"p50_ns\": ", f);
            jsonNumber(f, cs.p50Ns);
            std::fputs(", \"p99_ns\": ", f);
            jsonNumber(f, cs.p99Ns);
            std::fputs(", \"p999_ns\": ", f);
            jsonNumber(f, cs.p999Ns);
            std::fputs(", \"slo_attainment\": ", f);
            jsonNumber(f, cs.sloAttainment);
            std::fputs("}", f);
        }
        std::fputs("]}", f);
    }
    std::fputs("],\n  \"claims\": [", f);
    for (std::size_t i = 0; i < r.claims.size(); ++i) {
        const auto &c = r.claims[i];
        std::fprintf(f, "%s\n    {\"what\": \"%s\", \"paper\": ",
                     i == 0 ? "" : ",", jsonEscape(c.what).c_str());
        jsonNumber(f, c.paper);
        std::fputs(", \"measured\": ", f);
        jsonNumber(f, c.measured);
        std::fputs(", \"rel_tol\": ", f);
        jsonNumber(f, c.relTol);
        std::fprintf(f, ", \"holds\": %s}", c.holds ? "true" : "false");
    }
    const PerfSummary p = perfSummary();
    std::fputs("],\n  \"perf\": {\"wall_seconds\": ", f);
    jsonNumber(f, p.wallSeconds);
    std::fprintf(f, ", \"sim_events\": %llu",
                 static_cast<unsigned long long>(p.simEvents));
    std::fputs(", \"events_per_sec\": ", f);
    jsonNumber(f, p.eventsPerSec);
    std::fputs("}\n}\n", f);
    std::fclose(f);
    printPerfSummary();
    std::printf("[json] wrote %s\n", r.path.c_str());
}

} // namespace

BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    g_benchStart = WallClock::now();
    const char *fast_env = std::getenv("RPCVALET_BENCH_FAST");
    if (fast_env != nullptr && std::strcmp(fast_env, "0") != 0)
        args.fast = true;

    bool points_set = false;
    bool rpcs_set = false;
    bool warmup_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // Every value is read inside a frame naming the flag, so a
        // malformed one dies as "--flag=value: ..." before any run.
        const sim::ErrorContext ctx(arg);
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        // A spec flag is built through its registry right here; an
        // empty one keeps the bench's default.
        auto spec = [](const char *text, auto check) {
            if (*text != '\0')
                (void)check(text);
            return std::string(text);
        };
        if (const char *points = value("--points=")) {
            args.points = sim::parseUint(points, 1, 1u << 20);
            points_set = true;
        } else if (const char *rpcs = value("--rpcs=")) {
            args.rpcs = sim::parseUint(rpcs, 1);
            rpcs_set = true;
        } else if (const char *warmup = value("--warmup=")) {
            args.warmup = sim::parseUint(warmup);
            warmup_set = true;
        } else if (const char *seed = value("--seed=")) {
            args.seed = sim::parseUint(seed);
        } else if (const char *threads = value("--threads=")) {
            args.threads =
                static_cast<unsigned>(sim::parseUint(threads, 1, 1024));
        } else if (const char *nodes = value("--nodes=")) {
            args.nodes =
                static_cast<std::uint32_t>(sim::parseUint(nodes, 1, 64));
        } else if (const char *domains = value("--parallel-domains=")) {
            args.parallelDomains =
                static_cast<unsigned>(sim::parseUint(domains, 0, 1024));
        } else if (const char *fault = value("--fault=")) {
            if (*fault == '\0')
                sim::fatal("needs a spec (e.g. --fault=packet-loss:p=0.01)");
            (void)core::checkFault(fault);
            args.faults.emplace_back(fault);
        } else if (const char *conn = value("--connections=")) {
            if (*conn == '\0')
                sim::fatal("needs a spec (e.g. --connections=grouped:"
                           "clients=2048,size=40,slice=100us)");
            (void)conn::parseConnConfig(conn);
            args.connections = conn;
        } else if (arg == "--list-specs") {
            std::fputs(core::formatRegistryListing().c_str(), stdout);
            std::exit(0);
        } else if (const char *router = value("--router="))
            args.router = spec(router, core::checkRouter);
        else if (const char *policy = value("--policy="))
            args.policy = spec(policy, core::checkPolicy);
        else if (const char *arrival = value("--arrival="))
            args.arrival = spec(arrival, core::checkArrival);
        else if (const char *workload = value("--workload="))
            args.workload = spec(workload, core::checkWorkload);
        else if (const char *mode = value("--mode="))
            args.mode = mode;
        else if (const char *json = value("--json="))
            args.json = json;
        else if (arg == "--fast")
            args.fast = true;
        else
            sim::fatal("unknown bench argument");
    }

    // Fast mode shrinks the defaults for smoke runs; explicitly
    // passed sizes always win so CI can pin exact tiny runs.
    if (args.fast) {
        if (!points_set)
            args.points = std::max<std::size_t>(5, args.points / 2);
        if (!rpcs_set)
            args.rpcs = std::max<std::uint64_t>(10000, args.rpcs / 5);
        if (!warmup_set)
            args.warmup = std::max<std::uint64_t>(1000, args.warmup / 5);
    }

    if (!args.json.empty()) {
        JsonReport &r = report();
        r.enabled = true;
        r.path = args.json;
        std::string name = argc > 0 ? argv[0] : "bench";
        const std::size_t slash = name.find_last_of('/');
        if (slash != std::string::npos)
            name = name.substr(slash + 1);
        if (name.compare(0, 6, "bench_") == 0)
            name = name.substr(6);
        r.benchName = name;
        r.args = args;
    }
    // Report wall-clock and events/sec at exit — and write the JSON
    // report when enabled — even if the bench exits early through
    // fatal() (which calls exit(1), running atexit hooks).
    std::atexit(writeJsonReport);
    return args;
}

void
applyPolicyOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    if (!args.policy.empty())
        cfg.system.policy = ni::PolicySpec(args.policy);
}

void
applyArrivalOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    if (!args.arrival.empty())
        cfg.arrival = net::ArrivalSpec(args.arrival);
}

void
applyWorkloadOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    if (!args.workload.empty())
        cfg.workload = app::WorkloadSpec(args.workload);
}

void
applyModeOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    if (args.mode.empty())
        return;
    cfg.system.mode = ni::dispatchModeFromName(args.mode);
}

void
applyClusterOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    if (args.nodes > 0)
        cfg.cluster.numServerNodes = args.nodes;
    if (!args.router.empty())
        cfg.cluster.router = cluster::RouterSpec(args.router);
}

void
applyFaultOverride(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    for (const std::string &spec : args.faults)
        cfg.faults.emplace_back(spec);
}

void
applyConnectionsOverride(const BenchArgs &args,
                         core::ExperimentConfig &cfg)
{
    if (!args.connections.empty())
        cfg.connections = conn::parseConnConfig(args.connections);
}

void
applyOverrides(const BenchArgs &args, core::ExperimentConfig &cfg)
{
    applyModeOverride(args, cfg);
    applyPolicyOverride(args, cfg);
    applyArrivalOverride(args, cfg);
    applyWorkloadOverride(args, cfg);
    applyClusterOverride(args, cfg);
    applyFaultOverride(args, cfg);
    applyConnectionsOverride(args, cfg);
    if (args.parallelDomains > 0)
        cfg.parallelDomains = args.parallelDomains;
}

void
dropModeAxis(BenchArgs &args)
{
    if (args.mode.empty())
        return;
    (void)ni::dispatchModeFromName(args.mode); // typos still die
    sim::warn("--mode=" + args.mode +
              " ignored: the dispatch mode is this bench's figure axis");
    args.mode.clear();
}

void
dropWorkloadAxis(BenchArgs &args)
{
    if (args.workload.empty())
        return;
    sim::warn("--workload=" + args.workload +
              " ignored: the workload is this bench's figure axis");
    args.workload.clear();
}

void
printHeader(const std::string &figure, const std::string &summary)
{
    std::printf("==========================================================="
                "=====\n");
    std::printf("%s\n", figure.c_str());
    std::printf("%s\n", summary.c_str());
    std::printf("==========================================================="
                "=====\n");
}

void
recordJsonSeries(const stats::Series &series, double capacity_rps,
                 double sbar_ns)
{
    JsonReport &r = report();
    if (!r.enabled)
        return;
    for (auto &entry : r.series) {
        if (entry.series.label == series.label) {
            entry.series = series;
            // Keep the richer normalization data if the update has
            // none (printSloSummary records with 0/0).
            if (capacity_rps > 0.0) {
                entry.capacityRps = capacity_rps;
                entry.sbarNs = sbar_ns;
            }
            return;
        }
    }
    r.series.push_back({series, capacity_rps, sbar_ns});
}

void
printNormalizedSeries(const stats::Series &series, double capacity_rps,
                      double sbar_ns)
{
    recordJsonSeries(series, capacity_rps, sbar_ns);
    std::printf("\n-- %s (S-bar = %.0f ns) --\n", series.label.c_str(),
                sbar_ns);
    std::printf("%8s %14s %12s %12s\n", "load", "tput(Mrps)",
                "p99(xSbar)", "mean(xSbar)");
    for (const auto &p : series.points) {
        std::printf("%8.2f %14.3f %12.2f %12.2f\n",
                    p.offeredRps / capacity_rps, p.achievedRps / 1e6,
                    p.p99Ns / sbar_ns, p.meanNs / sbar_ns);
    }
}

void
printSloSummary(const std::string &title,
                const std::vector<stats::Series> &series, double slo_ns)
{
    for (const auto &s : series)
        recordJsonSeries(s);
    std::printf("\n%s\n",
                stats::formatSloTable(title, series, slo_ns,
                                      series.size() - 1)
                    .c_str());
}

void
recordClassStats(const std::string &label,
                 const std::vector<core::ClassStats> &classes)
{
    JsonReport &r = report();
    if (!r.enabled)
        return;
    for (auto &entry : r.classStats) {
        if (entry.label == label) {
            entry.classes = classes;
            return;
        }
    }
    r.classStats.push_back({label, classes});
}

void
printClassStats(const std::string &label,
                const std::vector<core::ClassStats> &classes)
{
    recordClassStats(label, classes);
    std::printf("\n-- per-class tails: %s --\n", label.c_str());
    std::printf("%16s %5s %12s %10s %10s %10s %10s %12s\n", "class",
                "crit", "tput(Mrps)", "p50(us)", "p99(us)", "p99.9(us)",
                "SLO(us)", "SLO-attain");
    for (const core::ClassStats &cs : classes) {
        std::printf("%16s %5s %12.3f %10.2f %10.2f %10.2f ",
                    cs.name.c_str(), cs.latencyCritical ? "yes" : "no",
                    cs.achievedRps / 1e6, cs.p50Ns / 1e3,
                    cs.p99Ns / 1e3, cs.p999Ns / 1e3);
        if (cs.sloNs > 0.0) {
            std::printf("%10.2f %11.1f%%\n", cs.sloNs / 1e3,
                        100.0 * cs.sloAttainment);
        } else {
            std::printf("%10s %12s\n", "-", "-");
        }
    }
}

void
claim(const std::string &what, double paper_value, double measured_value,
      double rel_tol)
{
    const bool ok =
        measured_value >= paper_value * (1.0 - rel_tol) &&
        measured_value <= paper_value * (1.0 + rel_tol);
    report().claims.push_back(
        {what, paper_value, measured_value, rel_tol, ok});
    std::printf("[claim] %-46s paper=%-8.3g measured=%-8.3g %s\n",
                what.c_str(), paper_value, measured_value,
                ok ? "OK" : "DIVERGES");
}

core::SweepConfig
makeSweep(const BenchArgs &args, const core::ExperimentConfig &base,
          const std::string &label, double capacity_rps, double lo_util,
          double hi_util)
{
    core::SweepConfig sweep;
    sweep.base = base;
    sweep.base.warmupRpcs = args.warmup;
    sweep.base.measuredRpcs = args.rpcs;
    sweep.base.system.seed = args.seed;
    applyOverrides(args, sweep.base);
    for (double u : core::loadGrid(lo_util, hi_util, args.points))
        sweep.arrivalRates.push_back(u * capacity_rps);
    sweep.label = label;
    sweep.threads = args.threads;
    return sweep;
}

void
recordParallelPerf(const std::vector<unsigned> &workers,
                   const std::vector<double> &eventsPerSec)
{
    RV_ASSERT(workers.size() == eventsPerSec.size() &&
                  !workers.empty(),
              "recordParallelPerf needs one rate per worker count");
    stats::Series series;
    series.label = "events_per_sec_parallel";
    for (std::size_t i = 0; i < workers.size(); ++i) {
        stats::LoadPoint pt;
        pt.offeredRps = static_cast<double>(workers[i]);
        pt.achievedRps = eventsPerSec[i];
        series.points.push_back(pt);
        std::printf("[perf] %u domain worker%s: %.3g events/s%s\n",
                    workers[i], workers[i] == 1 ? "" : "s",
                    eventsPerSec[i],
                    i > 0 && eventsPerSec[0] > 0.0
                        ? sim::strfmt(" (%.2fx vs 1 worker)",
                                      eventsPerSec[i] /
                                          eventsPerSec[0])
                              .c_str()
                        : "");
    }
    recordJsonSeries(series);
}

} // namespace rpcvalet::bench
