/**
 * @file
 * rpcvalet_run: execute declarative scenario files.
 *
 *   rpcvalet_run [options] <scenario.scn> [<more.scn> ...]
 *
 * Each scenario file (grammar: src/scenario/scenario.hh, worked
 * examples: examples/scenarios/) expands into an experiment matrix;
 * every point runs to completion and the results land in the
 * scenario's output directory as per-point JSON, a summary.json with
 * build/git/timestamp provenance, and a Prometheus metrics file.
 *
 * Options:
 *   --out=DIR      override the scenario's [output] dir
 *   --threads=N    override the scenario's [sweep] threads
 *   --parallel-domains=N  override [experiment] parallel_domains
 *   --dry-run      parse and expand only; print the matrix, run nothing
 *   --explain-faults  dry-run that also prints each point's resolved
 *                  fault timeline ([chaos] faults)
 *   --quiet        suppress the per-point progress table
 *   --strict-slo   exit 1 when any declared SLO is unmet
 *   --list-specs   print every registered component name across all
 *                  six spec registries (policy, arrival, workload,
 *                  router, fault, conn) and exit
 *   --version      print build provenance and exit
 *
 * Exit status: 0 on success, 1 on usage errors or (with --strict-slo)
 * unmet SLOs. Parse errors are fatal with file:line diagnostics.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/registry_listing.hh"
#include "fault/fault.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"

namespace {

using namespace rpcvalet;

void
usage(std::FILE *f)
{
    std::fputs(
        "usage: rpcvalet_run [options] <scenario.scn> [<more.scn> ...]\n"
        "  --out=DIR      override the scenario's [output] dir\n"
        "  --threads=N    override the scenario's [sweep] threads\n"
        "  --parallel-domains=N  override [experiment] "
        "parallel_domains (0 = sequential)\n"
        "  --dry-run      expand and print the matrix, run nothing\n"
        "  --explain-faults  dry-run printing each point's resolved "
        "fault timeline\n"
        "  --quiet        suppress the per-point progress table\n"
        "  --strict-slo   exit 1 when any declared SLO is unmet\n"
        "  --list-specs   print every registered component name and "
        "exit\n"
        "  --version      print build provenance and exit\n",
        f);
}

struct Options
{
    std::string outDir;
    unsigned threads = 0;
    int parallelDomains = -1; // -1 = keep the scenario's value
    bool dryRun = false;
    bool explainFaults = false;
    bool quiet = false;
    bool strictSlo = false;
    std::vector<std::string> files;
};

/**
 * Strict value of a "--flag=N" argument: the whole of N must be a
 * decimal integer in [lo, 1024] (no sign, no trailing junk), else
 * fatal naming the argument.
 */
unsigned
parseCount(const std::string &arg, unsigned lo)
{
    const char *text = arg.c_str() + arg.find('=') + 1;
    char *end = nullptr;
    const unsigned long n = std::strtoul(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || n < lo || n > 1024) {
        sim::fatal(sim::strfmt("%s: expected an integer in [%u, 1024]",
                               arg.c_str(), lo));
    }
    return static_cast<unsigned>(n);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--list-specs") {
            std::fputs(core::formatRegistryListing().c_str(), stdout);
            std::exit(0);
        } else if (arg == "--version") {
            const sim::BuildInfo &bi = sim::buildInfo();
            std::printf("rpcvalet_run %s (%s)\n", bi.gitSha,
                        bi.buildType);
            std::exit(0);
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.outDir = arg.substr(6);
            if (opt.outDir.empty())
                sim::fatal("--out needs a directory");
        } else if (arg.rfind("--threads=", 0) == 0) {
            opt.threads = parseCount(arg, 1);
        } else if (arg.rfind("--parallel-domains=", 0) == 0) {
            opt.parallelDomains = static_cast<int>(parseCount(arg, 0));
        } else if (arg == "--dry-run") {
            opt.dryRun = true;
        } else if (arg == "--explain-faults") {
            opt.dryRun = true;
            opt.explainFaults = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--strict-slo") {
            opt.strictSlo = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr);
            std::exit(1);
        } else {
            opt.files.push_back(arg);
        }
    }
    if (opt.files.empty()) {
        usage(stderr);
        std::exit(1);
    }
    return opt;
}

void
printPoint(const scenario::PointResult &res)
{
    const scenario::ScenarioPoint &pt = res.point;
    const core::RunStats &st = res.stats;
    std::printf("  [%3zu] %-28s %-14s n=%-2u %9.0f rps  "
                "p99 %8.0f ns",
                pt.index, pt.workload.c_str(), pt.policy.c_str(),
                pt.nodes, st.point.offeredRps, st.point.p99Ns);
    for (const scenario::SloOutcome &so : res.slos) {
        std::printf("  %s:%s", so.className.c_str(),
                    so.met ? "ok" : "MISS");
    }
    std::printf("\n");
}

/** Run one scenario file end to end; returns whether its SLOs held. */
bool
runOne(const std::string &path, const Options &opt)
{
    scenario::Scenario scn = scenario::parseScenarioFile(path);
    if (!opt.outDir.empty())
        scn.outputDir = opt.outDir;
    if (opt.threads != 0)
        scn.threads = opt.threads;
    if (opt.parallelDomains >= 0) {
        scn.base.parallelDomains =
            static_cast<unsigned>(opt.parallelDomains);
    }

    const std::vector<scenario::ScenarioPoint> matrix =
        scenario::expandMatrix(scn);
    if (!opt.quiet) {
        std::printf("%s: %zu point%s -> %s\n", scn.name.c_str(),
                    matrix.size(), matrix.size() == 1 ? "" : "s",
                    scn.outputDir.c_str());
    }
    if (opt.dryRun) {
        for (const scenario::ScenarioPoint &pt : matrix) {
            std::printf("  [%3zu] workload=%s policy=%s arrival=%s "
                        "router=%s nodes=%u rps=%.0f\n",
                        pt.index, pt.workload.c_str(),
                        pt.policy.c_str(), pt.arrival.c_str(),
                        pt.router.c_str(), pt.nodes,
                        pt.config.arrivalRps);
            if (!opt.explainFaults)
                continue;
            // Resolve against this point's shape — exactly what the
            // run itself would inject; bad specs die here with
            // file-independent context.
            const fault::Resolution plan = fault::resolveFaults(
                pt.config.faults,
                fault::ResolveContext{
                    pt.config.cluster.numServerNodes,
                    pt.config.system.numCores,
                    pt.config.parallelDomains > 0});
            if (plan.timeline.empty()) {
                std::printf("        (no faults)\n");
                continue;
            }
            for (const fault::Activation &act : plan.timeline)
                std::printf("        %s\n", act.describe().c_str());
            if (pt.config.retry.active()) {
                std::printf(
                    "        retry: max_attempts=%u backoff=%.3fus "
                    "x%g jitter=%g hedge_after=%.3fus\n",
                    pt.config.retry.maxAttempts,
                    sim::toUs(pt.config.retry.baseBackoff),
                    pt.config.retry.multiplier, pt.config.retry.jitter,
                    sim::toUs(pt.config.retry.hedgeAfter));
            }
        }
        return true;
    }

    const scenario::ScenarioResult result = scenario::runScenario(scn);
    if (!opt.quiet) {
        for (const scenario::PointResult &res : result.points)
            printPoint(res);
    }
    const std::vector<std::string> written =
        scenario::writeScenarioOutputs(result);
    if (!opt.quiet) {
        for (const std::string &w : written)
            std::printf("  wrote %s\n", w.c_str());
        if (!scn.slos.empty()) {
            std::printf("  SLOs %s\n",
                        result.slosMet ? "met on every point"
                                       : "MISSED (see summary.json)");
        }
    }
    return result.slosMet;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    bool slos_met = true;
    for (const std::string &path : opt.files)
        slos_met = runOne(path, opt) && slos_met;
    return (opt.strictSlo && !slos_met) ? 1 : 0;
}
