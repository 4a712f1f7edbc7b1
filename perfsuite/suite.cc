/**
 * @file
 * bench_suite: the simulator's benchmark.
 *
 *   bench_suite [--workload=NAME] [--seed=N] [--seconds=S] [--trace]
 *               [--smoke] [--json=FILE] [--trace-dir=DIR]
 *
 * Without --workload every workload runs, each in a fresh child process
 * (a re-exec of this binary), so that peak_rss_mb and setup_s belong to
 * that workload alone. One workload run is:
 *
 *  1. untraced reps of the full configuration, at least three, and more
 *     while the next one still fits in --seconds, with four set-up
 *     probes (runExperiment with warmup 0 / measured 1) before each of
 *     the first three; every end-to-end metric comes from these;
 *  2. with --trace, one more rep with every interposer selected (see
 *     interpose.hh) plus the isolated layer drivers (drivers.hh); the
 *     per-layer metrics come from these.
 *
 * Output checks: every rep reproduces the first rep's fingerprint
 * (executedEvents, completions, p50/p99 bit patterns), the traced rep
 * too; completions reach warmup + measured; no reply fails
 * verification. A failed check names the workload and the field and
 * makes the exit status non-zero.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "drivers.hh"
#include "interpose.hh"
#include "sim/logging.hh"

namespace {

using namespace rpcvalet;
using Clock = std::chrono::steady_clock;

/** One benchmark workload: sizes are fixed here, not by flags. */
struct WorkloadDef
{
    const char *name;
    const char *workload;
    std::uint32_t nodes;
    unsigned parallelDomains;
    /** Offered load as a fraction of nodes x estimateCapacityRps. */
    double load;
    std::uint64_t warmup;
    std::uint64_t measured;
    bool chaos;
};

// Why each workload exists is recorded in README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"herd-1n", "herd", 1, 0, 0.8, 50000, 1000000, false},
    {"herd-1536rw-1n", "herd:value_bytes=1536,read_ratio=0.5", 1, 0, 0.8,
     15000, 300000, false},
    {"herd-4n-par4", "herd", 4, 4, 0.8, 50000, 1000000, false},
    {"chaos-4n", "herd", 4, 0, 0.4, 40000, 800000, true},
};

constexpr std::size_t kMinReps = 3;
constexpr int kProbesPerRep = 4;
/** --smoke divides warmup and measured counts by this. */
constexpr std::uint64_t kSmokeDivisor = 50;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    std::uint64_t seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string json;
    std::string traceDir;
};

/** Strict unsigned parse: junk, signs and overflow are fatal. */
std::uint64_t
parseUint(const std::string &flag, const char *text, std::uint64_t hi)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text < '0' || *text > '9' || end == text || *end != '\0' ||
        errno == ERANGE || v > hi) {
        sim::fatal(sim::strfmt("%s=%s: expected an integer in [0, %llu]",
                               flag.c_str(), text,
                               static_cast<unsigned long long>(hi)));
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            const std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
        };
        if (const char *w = value("--workload="))
            args.workload = w;
        else if (const char *seed = value("--seed="))
            args.seed = parseUint("--seed", seed, UINT64_MAX);
        else if (const char *secs = value("--seconds="))
            args.seconds = parseUint("--seconds", secs, 3600);
        else if (const char *j = value("--json="))
            args.json = j;
        else if (const char *d = value("--trace-dir="))
            args.traceDir = d;
        else if (arg == "--trace")
            args.trace = true;
        else if (arg == "--smoke")
            args.smoke = true;
        else
            sim::fatal("unknown bench_suite argument: " + arg);
    }
    if (!args.workload.empty()) {
        const bool known = std::any_of(
            std::begin(kWorkloads), std::end(kWorkloads),
            [&](const WorkloadDef &w) { return args.workload == w.name; });
        if (!known) {
            std::string names;
            for (const WorkloadDef &w : kWorkloads)
                names += std::string(names.empty() ? "" : ", ") + w.name;
            sim::fatal("--workload=" + args.workload +
                       ": unknown workload (known: " + names + ")");
        }
    }
    return args;
}

core::ExperimentConfig
makeConfig(const WorkloadDef &def, const Args &args)
{
    core::ExperimentConfig cfg;
    cfg.workload = def.workload;
    cfg.system.seed = args.seed;
    cfg.cluster.numServerNodes = def.nodes;
    if (def.nodes > 1)
        cfg.cluster.router = "bounded-load:c=1.25";
    cfg.parallelDomains = def.parallelDomains;
    cfg.arrivalRps = def.load * def.nodes *
                     core::estimateCapacityRps(cfg.system, cfg.workload);
    const std::uint64_t div = args.smoke ? kSmokeDivisor : 1;
    cfg.warmupRpcs = def.warmup / div;
    cfg.measuredRpcs = def.measured / div;
    // The suite checks verifyFailures itself, naming the workload.
    cfg.failOnVerifyError = false;
    if (def.chaos) {
        cfg.cluster.requestTimeout = sim::microseconds(30.0);
        cfg.cluster.recoveryAfter = sim::microseconds(200.0);
        cfg.faults = {"packet-loss:p=0.002",
                      "packet-delay:add=200ns,jitter=100ns",
                      "crash:node=3,at=1ms,recover_after=1ms"};
        cfg.retry.maxAttempts = 6;
        cfg.retry.baseBackoff = sim::microseconds(5.0);
        cfg.retry.multiplier = 2.0;
        cfg.retry.jitter = 0.2;
        cfg.retry.hedgeAfter = sim::microseconds(20.0);
    }
    return cfg;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * On a shared host each CPU runs at its own speed, which changes every
 * few seconds with the load other tenants put on the physical core
 * beneath it. A single-threaded rep is therefore pinned to whichever
 * allowed CPU a short fixed loop finds fastest just before it runs.
 * Threads inherit the pin, so multi-threaded work runs unpinned.
 */
class CpuPicker
{
  public:
    CpuPicker()
    {
        if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
            CPU_ZERO(&allowed_);
    }

    void
    pinFastest()
    {
        int best = -1;
        double bestS = 0.0;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu))
                continue;
            const double s = std::min(probeS(), probeS());
            if (best < 0 || s < bestS) {
                best = cpu;
                bestS = s;
            }
        }
        if (best >= 0)
            pin(best);
    }

    void
    unpin()
    {
        if (CPU_COUNT(&allowed_) > 0)
            sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }

  private:
    static bool
    pin(int cpu)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof(one), &one) == 0;
    }

    /** Random read-modify-writes over 2 MB: about 3 ms. */
    double
    probeS()
    {
        const Clock::time_point t0 = Clock::now();
        const std::size_t mask = buffer_.size() - 1;
        for (int i = 0; i < 1000000; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 7;
            x_ ^= x_ << 17;
            buffer_[x_ & mask] += x_;
        }
        return secondsSince(t0);
    }

    cpu_set_t allowed_{};
    std::vector<std::uint64_t> buffer_ =
        std::vector<std::uint64_t>(std::size_t{1} << 18);
    std::uint64_t x_ = 88172645463325252ull;
};

struct TimedRun
{
    core::RunStats stats;
    double wallS = 0.0;
};

TimedRun
timedRun(const core::ExperimentConfig &cfg)
{
    const Clock::time_point t0 = Clock::now();
    TimedRun r;
    r.stats = core::runExperiment(cfg);
    r.wallS = secondsSince(t0);
    return r;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct Report
{
    core::ExperimentConfig cfg;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<double> repWalls;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
};

/** Compare one fingerprint field; record a named failure on mismatch. */
template <typename T>
void
expectSame(Report &rep, const std::string &where, const char *field,
           const T &want, const T &got)
{
    if (std::memcmp(&want, &got, sizeof(T)) != 0) {
        rep.failures.push_back(sim::strfmt(
            "%s: field %s differs from rep 0", where.c_str(), field));
    }
}

void
checkFingerprint(Report &rep, const std::string &where,
                 const core::RunStats &want, const core::RunStats &got)
{
    expectSame(rep, where, "executedEvents", want.executedEvents,
               got.executedEvents);
    expectSame(rep, where, "completions", want.completions,
               got.completions);
    expectSame(rep, where, "point.p50Ns", want.point.p50Ns,
               got.point.p50Ns);
    expectSame(rep, where, "point.p99Ns", want.point.p99Ns,
               got.point.p99Ns);
}

void
checkRun(Report &rep, const std::string &where,
         const core::ExperimentConfig &cfg, const core::RunStats &s)
{
    if (s.completions < cfg.warmupRpcs + cfg.measuredRpcs) {
        rep.failures.push_back(sim::strfmt(
            "%s: field completions = %llu < warmup + measured = %llu",
            where.c_str(), static_cast<unsigned long long>(s.completions),
            static_cast<unsigned long long>(cfg.warmupRpcs +
                                            cfg.measuredRpcs)));
    }
    if (s.verifyFailures != 0) {
        rep.failures.push_back(sim::strfmt(
            "%s: field verifyFailures = %llu", where.c_str(),
            static_cast<unsigned long long>(s.verifyFailures)));
    }
    rep.attempted += s.completions;
    rep.failed += s.verifyFailures;
}

double
firstCriticalP999(const core::RunStats &s)
{
    for (const core::ClassStats &c : s.perClass) {
        if (c.latencyCritical)
            return c.p999Ns;
    }
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
addTracedMetrics(Report &rep, const WorkloadDef &def,
                 const core::ExperimentConfig &cfg,
                 const core::RunStats &first, double bestWallS,
                 CpuPicker *picker, const Args &args)
{
    using perfsuite::Span;
    perfsuite::setInnerSpecs(perfsuite::InnerSpecs{
        cfg.workload, cfg.system.policy, cfg.arrival, cfg.cluster.router});
    core::ExperimentConfig traced = cfg;
    traced.workload = perfsuite::kTimedSpec;
    traced.system.policy = perfsuite::kTimedSpec;
    traced.arrival = perfsuite::kTimedSpec;
    traced.cluster.router = perfsuite::kTimedSpec;

    if (picker != nullptr)
        picker->pinFastest();
    perfsuite::beginTrace();
    const std::int64_t start = perfsuite::traceNowNs();
    const TimedRun run = timedRun(traced);
    const std::int64_t runNs = perfsuite::traceNowNs() - start;
    const perfsuite::TraceTotals t = perfsuite::endTrace();
    const std::string where = std::string(def.name) + " traced rep";
    checkFingerprint(rep, where, first, run.stats);
    checkRun(rep, where, cfg, run.stats);
    if (!args.traceDir.empty()) {
        const std::string path =
            args.traceDir + "/trace-" + def.name + ".json";
        if (!perfsuite::writeChromeTrace(path, def.name, start, runNs, t))
            sim::fatal("--trace-dir: cannot write '" + path + "'");
    }

    const double wallNs = static_cast<double>(runNs);
    const double completions = static_cast<double>(run.stats.completions);
    const auto share = [&](std::initializer_list<Span> spans) {
        double ns = 0.0;
        for (const Span s : spans)
            ns += static_cast<double>(t.nsOf(s));
        return ratio(ns, wallNs);
    };
    const double childShare =
        share({Span::MakeRequest, Span::Handle, Span::VerifyReply,
               Span::Select, Span::Arrival, Span::Route});

    // The WindowPool driver's threads must not inherit a single-CPU pin.
    if (picker != nullptr)
        picker->unpin();
    const perfsuite::DriverResults d = perfsuite::runDrivers(
        cfg.workload, cfg.system.policy, cfg.system.seed,
        cfg.warmupRpcs + cfg.measuredRpcs);
    const core::RunStats &s = first;
    const double lookaheadNs = sim::toNs(cfg.system.fabricLatency);

    rep.perLayer = {
        {"core.run_self_share", 1.0 - childShare, "fraction"},
        {"core.window_ns", d.windowNs, "ns"},
        {"core.windows",
         cfg.parallelDomains > 0
             ? std::round(s.simulatedUs * 1e3 / lookaheadNs)
             : 0.0,
         "count"},
        {"sim.events_per_rpc",
         ratio(static_cast<double>(s.executedEvents),
               static_cast<double>(s.completions)),
         "count"},
        {"sim.events_per_s",
         ratio(static_cast<double>(s.executedEvents), bestWallS),
         "1/s"},
        {"sim.driver_ns_per_event", d.eventNsPerEvent, "ns"},
        {"proto.blocks_per_rpc", d.blocksPerRpc, "count"},
        {"proto.packetize_ns_per_msg", d.packetizeNsPerMsg, "ns"},
        {"proto.reassemble_ns_per_msg", d.reassembleNsPerMsg, "ns"},
        {"net.fabric_ns_per_packet", d.fabricNsPerPacket, "ns"},
        {"net.arrival_ns_per_call", t.nsPerCall(Span::Arrival), "ns"},
        {"net.arrival_share", share({Span::Arrival}), "fraction"},
        {"net.client_side_share",
         share({Span::MakeRequest, Span::VerifyReply, Span::Arrival,
                Span::Route}),
         "fraction"},
        {"net.flow_control_deferrals",
         static_cast<double>(s.flowControlDeferrals), "count"},
        {"app.make_request_ns_per_call", t.nsPerCall(Span::MakeRequest),
         "ns"},
        {"app.handle_ns_per_call", t.nsPerCall(Span::Handle), "ns"},
        {"app.verify_reply_ns_per_call", t.nsPerCall(Span::VerifyReply),
         "ns"},
        {"app.share",
         share({Span::MakeRequest, Span::Handle, Span::VerifyReply}),
         "fraction"},
        {"app.build_s", d.appBuildS, "s"},
        {"ni.select_ns_per_call", t.nsPerCall(Span::Select), "ns"},
        {"ni.select_calls_per_rpc",
         ratio(static_cast<double>(t.callsOf(Span::Select)), completions),
         "count"},
        {"ni.select_share", share({Span::Select}), "fraction"},
        {"ni.dispatcher_ns_per_rpc", d.dispatcherNsPerRpc, "ns"},
        {"ni.sim_dispatch_mean_ns", s.breakdown.dispatch.meanNs, "ns"},
        {"node.sim_queue_wait_mean_ns", s.breakdown.queueWait.meanNs,
         "ns"},
        {"node.sim_service_mean_ns", s.breakdown.service.meanNs, "ns"},
        {"node.reply_slot_stalls", static_cast<double>(s.replySlotStalls),
         "count"},
        {"node.recv_slot_peak", static_cast<double>(s.recvSlotPeak),
         "count"},
        {"cluster.route_ns_per_call", t.nsPerCall(Span::Route), "ns"},
        {"cluster.route_share", share({Span::Route}), "fraction"},
        {"cluster.request_timeouts",
         static_cast<double>(s.requestTimeouts), "count"},
        {"cluster.failover_reroutes",
         static_cast<double>(s.failoverReroutes), "count"},
        {"fault.retries", static_cast<double>(s.fault.retries), "count"},
        {"fault.hedges_sent", static_cast<double>(s.fault.hedgesSent),
         "count"},
        {"fault.packets_dropped",
         static_cast<double>(s.fault.packetsDropped), "count"},
        {"fault.rpc_fail_frac",
         ratio(static_cast<double>(s.fault.retryDrops + s.verifyFailures),
               static_cast<double>(s.completions + s.fault.retryDrops)),
         "fraction"},
        {"stats.record_ns_per_sample", d.recordNsPerSample, "ns"},
        {"stats.percentile_ms", d.percentileMs, "ms"},
        {"trace.overhead_frac", run.wallS / bestWallS - 1.0,
         "fraction"},
    };
}

Report
runWorkload(const WorkloadDef &def, const Args &args)
{
    Report rep;
    rep.cfg = makeConfig(def, args);
    const core::ExperimentConfig &cfg = rep.cfg;

    core::ExperimentConfig probe = cfg;
    probe.warmupRpcs = 0;
    probe.measuredRpcs = 1;
    std::vector<double> setup;
    std::vector<TimedRun> reps;
    double peakRss = 0.0;
    CpuPicker cpus;
    CpuPicker *const picker = cfg.parallelDomains == 0 ? &cpus : nullptr;
    const Clock::time_point start = Clock::now();
    for (;;) {
        if (reps.size() >= kMinReps) {
            const double meanRep =
                secondsSince(start) / static_cast<double>(reps.size());
            if (secondsSince(start) + meanRep >
                static_cast<double>(args.seconds))
                break;
        }
        if (picker != nullptr)
            picker->pinFastest();
        // Probes ride before each of the first reps, so their median
        // samples the host across the run, not one moment of it.
        if (reps.size() < kMinReps) {
            for (int i = 0; i < kProbesPerRep; ++i)
                setup.push_back(timedRun(probe).wallS);
        }
        reps.push_back(timedRun(cfg));
        // Later reps run on a heap the earlier ones fragmented; the
        // high-water mark after the first is the workload's own.
        if (reps.size() == 1)
            peakRss = peakRssMb();
        const std::string where =
            sim::strfmt("%s rep %zu", def.name, reps.size() - 1);
        checkFingerprint(rep, where, reps.front().stats,
                         reps.back().stats);
        checkRun(rep, where, cfg, reps.back().stats);
    }

    for (const TimedRun &r : reps)
        rep.repWalls.push_back(r.wallS);
    // Every rep does identical work, and on a shared host interference
    // only ever slows a rep down, so the fastest rep is the steadiest
    // estimate of the simulator's own speed.
    const double bestWallS =
        *std::min_element(rep.repWalls.begin(), rep.repWalls.end());
    const core::RunStats &s = reps.front().stats;
    rep.endToEnd = {
        {"sim_rpcs_per_s", static_cast<double>(s.completions) / bestWallS,
         "RPC/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRss, "MB"},
        {"sim_p50_ns", s.point.p50Ns, "ns"},
        {"sim_p99_ns", s.point.p99Ns, "ns"},
        {"sim_p999_ns", firstCriticalP999(s), "ns"},
        {"sim_achieved_mrps", s.point.achievedRps / 1e6, "Mrps"},
    };
    if (args.trace)
        addTracedMetrics(rep, def, cfg, s, bestWallS, picker, args);
    cpus.unpin();
    return rep;
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += sim::strfmt("%s\n      \"%s\": {\"value\": %.17g, "
                           "\"unit\": \"%s\"}",
                           i == 0 ? "" : ",", metrics[i].name.c_str(),
                           metrics[i].value, metrics[i].unit);
    }
    return out + "}";
}

std::string
jsonWorkload(const WorkloadDef &def, const Args &args, const Report &rep)
{
    const core::ExperimentConfig &cfg = rep.cfg;
    std::string faults;
    for (const fault::FaultSpec &f : cfg.faults)
        faults += sim::strfmt("%s\"%s\"", faults.empty() ? "" : ", ",
                              f.toString().c_str());
    std::string walls;
    for (const double w : rep.repWalls)
        walls += sim::strfmt("%s%.17g", walls.empty() ? "" : ", ", w);
    std::string failures;
    for (const std::string &f : rep.failures)
        failures += sim::strfmt("%s\"%s\"", failures.empty() ? "" : ", ",
                                f.c_str());
    return sim::strfmt(
        "{\n    \"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, "
        "\"traced\": %s,\n    \"config\": {\"workload\": \"%s\", "
        "\"nodes\": %u, \"router\": \"%s\", \"parallel_domains\": %u, "
        "\"load\": %g, \"arrival_rps\": %.17g, \"warmup_rpcs\": %llu, "
        "\"measured_rpcs\": %llu, \"faults\": [%s], "
        "\"setup_probes\": %d},\n    \"rep_walls_s\": [%s],\n"
        "    \"correct\": %s, \"failures\": [%s], \"attempted\": %llu, "
        "\"failed\": %llu,\n    \"end_to_end\": %s,\n"
        "    \"per_layer\": %s}",
        def.name, static_cast<unsigned long long>(args.seed),
        args.smoke ? "true" : "false", args.trace ? "true" : "false",
        cfg.workload.toString().c_str(), cfg.cluster.numServerNodes,
        cfg.cluster.router.toString().c_str(), cfg.parallelDomains,
        def.load, cfg.arrivalRps,
        static_cast<unsigned long long>(cfg.warmupRpcs),
        static_cast<unsigned long long>(cfg.measuredRpcs), faults.c_str(),
        kProbesPerRep * static_cast<int>(kMinReps), walls.c_str(),
        rep.failures.empty() ? "true" : "false", failures.c_str(),
        static_cast<unsigned long long>(rep.attempted),
        static_cast<unsigned long long>(rep.failed),
        jsonMetrics(rep.endToEnd).c_str(),
        jsonMetrics(rep.perLayer).c_str());
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text << '\n';
    if (!f.good())
        sim::fatal("cannot write '" + path + "'");
}

int
runOne(const Args &args)
{
    const WorkloadDef &def = *std::find_if(
        std::begin(kWorkloads), std::end(kWorkloads),
        [&](const WorkloadDef &w) { return args.workload == w.name; });
    const Report rep = runWorkload(def, args);
    for (const auto *group : {&rep.endToEnd, &rep.perLayer}) {
        for (const Metric &m : *group) {
            std::printf("%-16s %-30s %16.6g %s\n", def.name,
                        m.name.c_str(), m.value, m.unit);
        }
    }
    for (const std::string &f : rep.failures)
        std::fprintf(stderr, "bench_suite: check failed: %s\n", f.c_str());
    std::fflush(stdout);
    if (!args.json.empty())
        writeFile(args.json, jsonWorkload(def, args, rep));
    return rep.failures.empty() ? 0 : 2;
}

/** Run @p argv to completion; returns its exit status (-1 on signal). */
int
runChild(std::vector<std::string> argv)
{
    std::vector<char *> cargv;
    for (std::string &a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0)
        sim::fatal("fork failed");
    if (pid == 0) {
        execv("/proc/self/exe", cargv.data());
        std::perror("bench_suite: execv");
        _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            sim::fatal("waitpid failed");
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int
runAll(const Args &args, const char *self)
{
    int worst = 0;
    std::string parts;
    for (const WorkloadDef &def : kWorkloads) {
        std::vector<std::string> argv = {
            self, std::string("--workload=") + def.name,
            sim::strfmt("--seed=%llu",
                        static_cast<unsigned long long>(args.seed)),
            sim::strfmt("--seconds=%llu",
                        static_cast<unsigned long long>(args.seconds))};
        if (args.trace)
            argv.emplace_back("--trace");
        if (args.smoke)
            argv.emplace_back("--smoke");
        if (!args.traceDir.empty())
            argv.push_back("--trace-dir=" + args.traceDir);
        const std::string part = args.json + "." + def.name + ".part";
        if (!args.json.empty())
            argv.push_back("--json=" + part);
        const int status = runChild(argv);
        if (status != 0) {
            std::fprintf(stderr, "bench_suite: workload %s exited with "
                                 "status %d\n", def.name, status);
            worst = status < 0 ? 1 : std::max(worst, status);
            continue;
        }
        if (!args.json.empty()) {
            std::ifstream in(part);
            std::stringstream text;
            text << in.rdbuf();
            std::remove(part.c_str());
            std::string body = text.str();
            while (!body.empty() && body.back() == '\n')
                body.pop_back();
            parts += (parts.empty() ? "\n  " : ",\n  ") + body;
        }
    }
    if (!args.json.empty()) {
        writeFile(args.json,
                  sim::strfmt("{\"seed\": %llu, \"workloads\": [%s]}",
                              static_cast<unsigned long long>(args.seed),
                              parts.c_str()));
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    return args.workload.empty() ? runAll(args, argv[0]) : runOne(args);
}
