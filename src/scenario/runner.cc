#include "scenario/runner.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/parallel.hh"
#include "sim/build_info.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "stats/metrics.hh"

namespace rpcvalet::scenario {

namespace {

using sim::jsonEscape;
using sim::jsonNumber;

void
jsonUint(std::FILE *f, std::uint64_t v)
{
    std::fprintf(f, "%llu", static_cast<unsigned long long>(v));
}

std::FILE *
openOrDie(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        sim::fatal(sim::strfmt("scenario output: cannot write '%s'",
                               path.c_str()));
    }
    return f;
}

/** The point's axis values as a JSON fragment (no trailing comma). */
void
writeAxes(std::FILE *f, const ScenarioPoint &pt)
{
    std::fprintf(f,
                 "\"workload\": \"%s\", \"policy\": \"%s\", "
                 "\"arrival\": \"%s\", \"router\": \"%s\", "
                 "\"scheduler\": \"%s\", \"nodes\": %u",
                 jsonEscape(pt.workload).c_str(),
                 jsonEscape(pt.policy).c_str(),
                 jsonEscape(pt.arrival).c_str(),
                 jsonEscape(pt.router).c_str(),
                 jsonEscape(pt.scheduler).c_str(), pt.nodes);
}

/** The build/git/timestamp provenance stamp every artifact carries. */
void
writeMeta(std::FILE *f, const std::string &timestamp)
{
    const sim::BuildInfo &bi = sim::buildInfo();
    std::fprintf(f,
                 "\"meta\": {\"build_type\": \"%s\", \"git_sha\": "
                 "\"%s\", \"timestamp\": \"%s\"}",
                 jsonEscape(bi.buildType).c_str(),
                 jsonEscape(bi.gitSha).c_str(),
                 jsonEscape(timestamp).c_str());
}

void
writePointJson(const std::string &path, const Scenario &scn,
               const PointResult &res, const std::string &timestamp)
{
    std::FILE *f = openOrDie(path);
    const ScenarioPoint &pt = res.point;
    const core::RunStats &st = res.stats;

    std::fprintf(f, "{\n  \"scenario\": \"%s\",\n  \"point\": %zu,\n  ",
                 jsonEscape(scn.name).c_str(), pt.index);
    writeMeta(f, timestamp);
    std::fputs(",\n  ", f);
    writeAxes(f, pt);
    std::fputs(",\n  \"load_fraction\": ", f);
    jsonNumber(f, pt.loadFraction);
    std::fputs(",\n  \"offered_rps\": ", f);
    jsonNumber(f, st.point.offeredRps);
    std::fputs(", \"achieved_rps\": ", f);
    jsonNumber(f, st.point.achievedRps);
    std::fputs(",\n  \"mean_ns\": ", f);
    jsonNumber(f, st.point.meanNs);
    std::fputs(", \"p50_ns\": ", f);
    jsonNumber(f, st.point.p50Ns);
    std::fputs(", \"p90_ns\": ", f);
    jsonNumber(f, st.point.p90Ns);
    std::fputs(", \"p99_ns\": ", f);
    jsonNumber(f, st.point.p99Ns);
    std::fputs(", \"samples\": ", f);
    jsonUint(f, st.point.samples);
    std::fputs(",\n  \"mean_service_ns\": ", f);
    jsonNumber(f, st.meanServiceNs);
    std::fputs(", \"completions\": ", f);
    jsonUint(f, st.completions);
    std::fputs(", \"critical_completions\": ", f);
    jsonUint(f, st.criticalCompletions);
    std::fputs(",\n  \"executed_events\": ", f);
    jsonUint(f, st.executedEvents);
    std::fputs(", \"simulated_us\": ", f);
    jsonNumber(f, st.simulatedUs);
    std::fputs(",\n  \"nested_rpcs_sent\": ", f);
    jsonUint(f, st.nestedRpcsSent);
    std::fputs(", \"chains_completed\": ", f);
    jsonUint(f, st.chainsCompleted);
    std::fputs(",\n  \"request_timeouts\": ", f);
    jsonUint(f, st.requestTimeouts);
    std::fputs(", \"failover_reroutes\": ", f);
    jsonUint(f, st.failoverReroutes);
    std::fputs(", \"stale_replies\": ", f);
    jsonUint(f, st.staleReplies);
    std::fprintf(f, ", \"nodes_down\": %u", st.nodesDown);

    std::fputs(",\n  \"fault\": {\"retries\": ", f);
    jsonUint(f, st.fault.retries);
    std::fputs(", \"retry_drops\": ", f);
    jsonUint(f, st.fault.retryDrops);
    std::fputs(", \"hedges_sent\": ", f);
    jsonUint(f, st.fault.hedgesSent);
    std::fputs(", \"hedges_won\": ", f);
    jsonUint(f, st.fault.hedgesWon);
    std::fputs(", \"duplicate_replies\": ", f);
    jsonUint(f, st.fault.duplicateReplies);
    std::fputs(",\n    \"packets_dropped\": ", f);
    jsonUint(f, st.fault.packetsDropped);
    std::fputs(", \"packets_delayed\": ", f);
    jsonUint(f, st.fault.packetsDelayed);
    std::fputs(", \"packets_corrupted\": ", f);
    jsonUint(f, st.fault.packetsCorrupted);
    std::fputs(", \"corruptions_detected\": ", f);
    jsonUint(f, st.fault.corruptionsDetected);
    std::fputs(", \"reply_slot_evictions\": ", f);
    jsonUint(f, st.fault.replySlotEvictions);
    std::fputs(",\n    \"degraded_p99_ns\": ", f);
    jsonNumber(f, st.fault.degradedP99Ns);
    std::fputs(", \"degraded_samples\": ", f);
    jsonUint(f, st.fault.degradedSamples);
    std::fputs(", \"healthy_p99_ns\": ", f);
    jsonNumber(f, st.fault.healthyP99Ns);
    std::fputs(", \"healthy_samples\": ", f);
    jsonUint(f, st.fault.healthySamples);
    std::fputs(",\n    \"activations\": [", f);
    for (std::size_t a = 0; a < st.fault.activations.size(); ++a) {
        const fault::Activation &act = st.fault.activations[a];
        std::fprintf(f,
                     "%s\n      {\"spec\": \"%s\", \"kind\": \"%s\", "
                     "\"node\": %d, \"core\": %d, \"at_ns\": ",
                     a == 0 ? "" : ",", jsonEscape(act.spec).c_str(),
                     jsonEscape(act.kind).c_str(), act.node, act.core);
        jsonNumber(f, sim::toNs(act.at));
        std::fputs(", \"until_ns\": ", f);
        jsonNumber(f, sim::toNs(act.until));
        std::fprintf(f, ", \"timed\": %s}",
                     act.timed ? "true" : "false");
    }
    std::fputs("]}", f);

    std::fprintf(f,
                 ",\n  \"conn\": {\"scheduler\": \"%s\", "
                 "\"clients\": %u, \"groups\": %u, "
                 "\"qp_capacity\": %u",
                 jsonEscape(st.conn.scheduler).c_str(),
                 st.conn.clients, st.conn.groups, st.conn.qpCapacity);
    std::fputs(",\n    \"group_switches\": ", f);
    jsonUint(f, st.conn.groupSwitches);
    std::fputs(", \"warmup_hits\": ", f);
    jsonUint(f, st.conn.warmupHits);
    std::fputs(", \"warmup_misses\": ", f);
    jsonUint(f, st.conn.warmupMisses);
    std::fputs(", \"regroups\": ", f);
    jsonUint(f, st.conn.regroups);
    std::fputs(",\n    \"admitted_immediate\": ", f);
    jsonUint(f, st.conn.admittedImmediate);
    std::fputs(", \"deferred_total\": ", f);
    jsonUint(f, st.conn.deferredTotal);
    std::fputs(", \"mean_deferred_wait_ns\": ", f);
    jsonNumber(f, st.conn.meanDeferredWaitNs);
    std::fputs(",\n    \"active_p99_ns\": ", f);
    jsonNumber(f, st.conn.activeP99Ns);
    std::fputs(", \"inactive_p99_ns\": ", f);
    jsonNumber(f, st.conn.inactiveP99Ns);
    std::fputs(",\n    \"qp_hits\": ", f);
    jsonUint(f, st.conn.qpHits);
    std::fputs(", \"qp_misses\": ", f);
    jsonUint(f, st.conn.qpMisses);
    std::fputs(", \"qp_footprint_all_bytes\": ", f);
    jsonUint(f, st.conn.qpFootprintAllBytes);
    std::fputs(", \"qp_footprint_group_bytes\": ", f);
    jsonUint(f, st.conn.qpFootprintGroupBytes);
    std::fputs(",\n    \"per_group\": [", f);
    for (std::size_t g = 0; g < st.conn.perGroupAdmitted.size(); ++g) {
        std::fprintf(f, "%s\n      {\"group\": %zu, \"admitted\": ",
                     g == 0 ? "" : ",", g);
        jsonUint(f, st.conn.perGroupAdmitted[g]);
        std::fputs(", \"deferred\": ", f);
        jsonUint(f, g < st.conn.perGroupDeferred.size()
                        ? st.conn.perGroupDeferred[g]
                        : 0);
        std::fputs(", \"p99_ns\": ", f);
        jsonNumber(f, g < st.conn.perGroupP99Ns.size()
                          ? st.conn.perGroupP99Ns[g]
                          : 0.0);
        std::fputs("}", f);
    }
    std::fputs("]}", f);

    std::fputs(",\n  \"per_class\": [", f);
    for (std::size_t c = 0; c < st.perClass.size(); ++c) {
        const core::ClassStats &cs = st.perClass[c];
        std::fprintf(f,
                     "%s\n    {\"class\": \"%s\", \"critical\": %s, "
                     "\"completions\": ",
                     c == 0 ? "" : ",", jsonEscape(cs.name).c_str(),
                     cs.latencyCritical ? "true" : "false");
        jsonUint(f, cs.completions);
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
        std::fputs("}", f);
    }

    std::fputs("],\n  \"per_node\": [", f);
    for (std::size_t n = 0; n < st.perNode.size(); ++n) {
        const core::NodeStats &ns = st.perNode[n];
        std::fprintf(f,
                     "%s\n    {\"node\": %u, \"failed\": %s, "
                     "\"served\": ",
                     n == 0 ? "" : ",", ns.nodeId,
                     ns.failed ? "true" : "false");
        jsonUint(f, ns.served);
        std::fputs(", \"achieved_rps\": ", f);
        jsonNumber(f, ns.achievedRps);
        std::fputs(", \"mean_ns\": ", f);
        jsonNumber(f, ns.meanNs);
        std::fputs(", \"p50_ns\": ", f);
        jsonNumber(f, ns.p50Ns);
        std::fputs(", \"p99_ns\": ", f);
        jsonNumber(f, ns.p99Ns);
        std::fputs("}", f);
    }

    std::fputs("],\n  \"slo\": [", f);
    for (std::size_t s = 0; s < res.slos.size(); ++s) {
        const SloOutcome &so = res.slos[s];
        std::fprintf(f, "%s\n    {\"class\": \"%s\", \"bound_ns\": ",
                     s == 0 ? "" : ",",
                     jsonEscape(so.className).c_str());
        jsonNumber(f, so.boundNs);
        std::fputs(", \"p99_ns\": ", f);
        jsonNumber(f, so.p99Ns);
        std::fprintf(f, ", \"found\": %s, \"met\": %s}",
                     so.classFound ? "true" : "false",
                     so.met ? "true" : "false");
    }
    std::fputs("]\n}\n", f);
    std::fclose(f);
}

void
writeSummaryJson(const std::string &path, const ScenarioResult &result,
                 const std::string &timestamp)
{
    std::FILE *f = openOrDie(path);
    const Scenario &scn = result.scenario;
    std::fprintf(f,
                 "{\n  \"scenario\": \"%s\",\n  \"source\": \"%s\",\n"
                 "  ",
                 jsonEscape(scn.name).c_str(),
                 jsonEscape(scn.source).c_str());
    writeMeta(f, timestamp);
    std::fprintf(f, ",\n  \"points\": %zu,\n  \"slos_met\": %s,\n",
                 result.points.size(),
                 result.slosMet ? "true" : "false");
    std::fputs("  \"results\": [", f);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const PointResult &res = result.points[i];
        bool point_slos_met = true;
        for (const SloOutcome &so : res.slos)
            point_slos_met = point_slos_met && so.met;
        std::fprintf(f, "%s\n    {\"point\": %zu, ", i == 0 ? "" : ",",
                     res.point.index);
        writeAxes(f, res.point);
        std::fputs(", \"offered_rps\": ", f);
        jsonNumber(f, res.stats.point.offeredRps);
        std::fputs(", \"achieved_rps\": ", f);
        jsonNumber(f, res.stats.point.achievedRps);
        std::fputs(", \"p99_ns\": ", f);
        jsonNumber(f, res.stats.point.p99Ns);
        std::fputs(", \"completions\": ", f);
        jsonUint(f, res.stats.completions);
        std::fprintf(f, ", \"slos_met\": %s}",
                     point_slos_met ? "true" : "false");
    }
    std::fputs("]\n}\n", f);
    std::fclose(f);
}

/** RunStats -> metrics bridge: one label set per matrix point. */
void
appendPointMetrics(stats::MetricsExporter &mx, const Scenario &scn,
                   const PointResult &res)
{
    const ScenarioPoint &pt = res.point;
    const core::RunStats &st = res.stats;
    stats::MetricsExporter::Labels base{
        {"scenario", scn.name},
        {"point", sim::strfmt("%zu", pt.index)},
        {"workload", pt.workload},
        {"policy", pt.policy},
        {"arrival", pt.arrival},
        {"router", pt.router},
        {"nodes", sim::strfmt("%u", pt.nodes)},
    };
    // Connection-scheduler axis label only when the subsystem is on,
    // so legacy scenarios keep byte-identical metrics output.
    if (!pt.scheduler.empty())
        base.emplace_back("scheduler", pt.scheduler);

    mx.gauge("rpcvalet_offered_rps",
             "Offered aggregate arrival rate, requests per second.",
             st.point.offeredRps, base);
    mx.gauge("rpcvalet_achieved_rps",
             "Achieved completion throughput, requests per second.",
             st.point.achievedRps, base);
    mx.summary(
        "rpcvalet_latency_ns",
        "End-to-end latency of latency-critical RPCs, nanoseconds.",
        {{0.5, st.point.p50Ns}, {0.9, st.point.p90Ns},
         {0.99, st.point.p99Ns}},
        st.point.meanNs * static_cast<double>(st.point.samples),
        st.point.samples, base);
    mx.counter("rpcvalet_completions_total",
               "Completed RPCs, warmup included.",
               static_cast<double>(st.completions), base);
    mx.counter("rpcvalet_nested_rpcs_total",
               "Nested RPCs issued by chained handlers.",
               static_cast<double>(st.nestedRpcsSent), base);
    mx.counter("rpcvalet_chains_completed_total",
               "Nested-RPC chain groups fully completed.",
               static_cast<double>(st.chainsCompleted), base);
    mx.counter("rpcvalet_request_timeouts_total",
               "Requests that exceeded the cluster request timeout.",
               static_cast<double>(st.requestTimeouts), base);
    mx.counter("rpcvalet_failover_reroutes_total",
               "Requests re-dispatched after a timeout or mark-down.",
               static_cast<double>(st.failoverReroutes), base);
    mx.counter("rpcvalet_retries_total",
               "Timed-out requests re-sent under the retry policy.",
               static_cast<double>(st.fault.retries), base);
    mx.counter("rpcvalet_retry_drops_total",
               "Requests dropped after exhausting the attempt budget.",
               static_cast<double>(st.fault.retryDrops), base);
    mx.counter("rpcvalet_hedges_sent_total",
               "Hedged duplicate sends issued for slow requests.",
               static_cast<double>(st.fault.hedgesSent), base);
    mx.counter("rpcvalet_hedges_won_total",
               "Hedged requests whose duplicate replied first.",
               static_cast<double>(st.fault.hedgesWon), base);
    mx.counter("rpcvalet_packets_dropped_total",
               "Packets dropped by injected loss faults.",
               static_cast<double>(st.fault.packetsDropped), base);
    mx.counter("rpcvalet_packets_corrupted_total",
               "Packets corrupted by injected corruption faults.",
               static_cast<double>(st.fault.packetsCorrupted), base);
    mx.counter("rpcvalet_corruptions_detected_total",
               "Corrupted replies caught by client-side verification.",
               static_cast<double>(st.fault.corruptionsDetected), base);

    if (st.conn.clients > 0) {
        // base already carries the scheduler label whenever the
        // subsystem is active (pt.scheduler is non-empty then).
        const stats::MetricsExporter::Labels &conn_base = base;
        mx.gauge("rpcvalet_conn_clients",
                 "Logical clients in the connection population.",
                 static_cast<double>(st.conn.clients), conn_base);
        mx.gauge("rpcvalet_conn_groups",
                 "Connection groups the population partitioned into.",
                 static_cast<double>(st.conn.groups), conn_base);
        mx.gauge("rpcvalet_conn_qp_capacity",
                 "Server-NI QP-cache capacity the run resolved to.",
                 static_cast<double>(st.conn.qpCapacity), conn_base);
        mx.counter("rpcvalet_conn_group_switches_total",
                   "Completed connection-group context switches.",
                   static_cast<double>(st.conn.groupSwitches),
                   conn_base);
        mx.counter("rpcvalet_conn_warmup_hits_total",
                   "Warmup pre-admissions that released a queued "
                   "request.",
                   static_cast<double>(st.conn.warmupHits), conn_base);
        mx.counter("rpcvalet_conn_warmup_misses_total",
                   "Warmup pre-admissions that found nothing queued.",
                   static_cast<double>(st.conn.warmupMisses),
                   conn_base);
        mx.counter("rpcvalet_conn_regroups_total",
                   "End-of-epoch priority regroupings.",
                   static_cast<double>(st.conn.regroups), conn_base);
        mx.counter("rpcvalet_conn_admitted_immediate_total",
                   "Requests admitted without deferral.",
                   static_cast<double>(st.conn.admittedImmediate),
                   conn_base);
        mx.counter("rpcvalet_conn_deferred_total",
                   "Requests deferred until their group went active.",
                   static_cast<double>(st.conn.deferredTotal),
                   conn_base);
        mx.gauge("rpcvalet_conn_mean_deferred_wait_ns",
                 "Mean admission wait of deferred requests, ns.",
                 st.conn.meanDeferredWaitNs, conn_base);
        mx.gauge("rpcvalet_conn_active_p99_ns",
                 "Client-observed p99 of immediately admitted "
                 "requests, ns.",
                 st.conn.activeP99Ns, conn_base);
        mx.gauge("rpcvalet_conn_inactive_p99_ns",
                 "Client-observed p99 of deferred requests (admission "
                 "wait included), ns.",
                 st.conn.inactiveP99Ns, conn_base);
        mx.counter("rpcvalet_conn_qp_hits_total",
                   "Server QP-cache hits.",
                   static_cast<double>(st.conn.qpHits), conn_base);
        mx.counter("rpcvalet_conn_qp_misses_total",
                   "Server QP-cache misses (cold-fetch penalty paid).",
                   static_cast<double>(st.conn.qpMisses), conn_base);
    }

    for (const core::ClassStats &cs : st.perClass) {
        stats::MetricsExporter::Labels labels = base;
        labels.emplace_back("class", cs.name);
        mx.summary("rpcvalet_class_latency_ns",
                   "Per-request-class latency, nanoseconds.",
                   {{0.5, cs.p50Ns}, {0.99, cs.p99Ns},
                    {0.999, cs.p999Ns}},
                   cs.meanNs * static_cast<double>(cs.completions),
                   cs.completions, labels);
    }

    for (const SloOutcome &so : res.slos) {
        stats::MetricsExporter::Labels labels = base;
        labels.emplace_back("class", so.className);
        mx.gauge("rpcvalet_slo_met",
                 "1 when the class's measured p99 is within its "
                 "declared bound, else 0.",
                 so.met ? 1.0 : 0.0, labels);
    }
}

std::vector<SloOutcome>
evaluateSlos(const Scenario &scn, const core::RunStats &st)
{
    std::vector<SloOutcome> out;
    out.reserve(scn.slos.size());
    for (const SloBound &bound : scn.slos) {
        SloOutcome so;
        so.className = bound.className;
        so.boundNs = bound.boundNs;
        for (const core::ClassStats &cs : st.perClass) {
            if (cs.name != bound.className)
                continue;
            so.classFound = true;
            so.p99Ns = cs.p99Ns;
            so.met = cs.p99Ns <= bound.boundNs;
            break;
        }
        out.push_back(std::move(so));
    }
    return out;
}

} // namespace

ScenarioResult
runScenario(const Scenario &scn)
{
    const std::vector<ScenarioPoint> points = expandMatrix(scn);
    RV_ASSERT(!points.empty(), "scenario expanded to an empty matrix");

    ScenarioResult result;
    result.scenario = scn;
    result.points.resize(points.size());

    // Points are independent simulations, fanned out over the shared
    // point-execution pool (same as core::runSweep). Results land by
    // index, so output order (and content) is identical regardless of
    // thread count. scn.threads is the total budget: points that
    // themselves run parallel domains get proportionally fewer
    // concurrent siblings.
    unsigned max_domains = 0;
    for (const ScenarioPoint &pt : points)
        max_domains =
            std::max(max_domains, pt.config.parallelDomains);
    core::runIndexedParallel(
        points.size(),
        core::pointConcurrency(scn.threads, max_domains),
        [&](std::size_t i) {
            PointResult res;
            res.point = points[i];
            res.stats = core::runExperiment(points[i].config);
            res.slos = evaluateSlos(scn, res.stats);
            result.points[i] = std::move(res);
        });

    for (const PointResult &res : result.points) {
        for (const SloOutcome &so : res.slos)
            result.slosMet = result.slosMet && so.met;
    }
    return result;
}

std::vector<std::string>
writeScenarioOutputs(const ScenarioResult &result)
{
    const Scenario &scn = result.scenario;
    std::vector<std::string> written;
    if (!scn.writeJson && !scn.writePrometheus)
        return written;

    std::error_code ec;
    std::filesystem::create_directories(scn.outputDir, ec);
    if (ec) {
        sim::fatal(sim::strfmt(
            "scenario output: cannot create directory '%s': %s",
            scn.outputDir.c_str(), ec.message().c_str()));
    }

    // One timestamp for the whole run: the artifacts of a scenario
    // form one consistent set.
    const std::string timestamp = sim::iso8601UtcNow();

    if (scn.writeJson) {
        for (const PointResult &res : result.points) {
            const std::string path = sim::strfmt(
                "%s/point_%03zu.json", scn.outputDir.c_str(),
                res.point.index);
            writePointJson(path, scn, res, timestamp);
            written.push_back(path);
        }
        const std::string summary = scn.outputDir + "/summary.json";
        writeSummaryJson(summary, result, timestamp);
        written.push_back(summary);
    }

    if (scn.writePrometheus) {
        stats::MetricsExporter mx;
        for (const PointResult &res : result.points)
            appendPointMetrics(mx, scn, res);
        const std::string path = scn.outputDir + "/metrics.prom";
        mx.writeFile(path);
        written.push_back(path);
    }
    return written;
}

} // namespace rpcvalet::scenario
