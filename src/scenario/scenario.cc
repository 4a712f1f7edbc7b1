#include "scenario/scenario.hh"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/registry_listing.hh"
#include "ni/dispatch_policy.hh"
#include "sim/logging.hh"
#include "sim/spec.hh"

namespace rpcvalet::scenario {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Split a '|'-separated list, trimming each entry; empty entries are
 *  fatal (they are always a typo, e.g. "a || b" or a trailing '|'). */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t bar = value.find('|', start);
        const std::string item = trim(
            bar == std::string::npos ? value.substr(start)
                                     : value.substr(start, bar - start));
        if (item.empty())
            sim::fatal("empty list entry ('|' needs a value on each side)");
        out.push_back(item);
        if (bar == std::string::npos)
            return out;
        start = bar + 1;
    }
}

/** File stem ("out/herd.scn" -> "herd") for the default name. */
std::string
stemOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
    std::size_t end = path.find_last_of('.');
    if (end == std::string::npos || end <= begin)
        end = path.size();
    return path.substr(begin, end - begin);
}

/** Line-by-line scenario parser; all state lives here. */
class Parser
{
  public:
    Parser(const std::string &source, Scenario &out)
        : source_(source), out_(out)
    {
    }

    void
    feed(const std::string &raw, int line)
    {
        line_ = line;
        const std::string text = trim(raw);
        if (text.empty() || text[0] == '#' || text[0] == ';')
            return;
        if (text.front() == '[') {
            if (text.back() != ']')
                die("malformed section header '" + text + "'");
            section_ = trim(text.substr(1, text.size() - 2));
            if (section_ != "experiment" && section_ != "cluster" &&
                section_ != "connections" && section_ != "chaos" &&
                section_ != "sweep" && section_ != "slo" &&
                section_ != "output") {
                die("unknown section '[" + section_ +
                    "]' (expected experiment, cluster, connections, "
                    "chaos, sweep, slo, or output)");
            }
            return;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos)
            die("expected 'key = value', got '" + text + "'");
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key.empty())
            die("empty key before '='");
        if (value.empty())
            die("key '" + key + "' has an empty value");
        if (section_.empty())
            die("'" + key + "' appears before any [section] header");

        // Every value is parsed (and every spec built through its
        // registry) inside a context frame naming file, line, and the
        // offending token.
        sim::ErrorContext ctx(sim::strfmt("%s:%d (%s = %s)",
                                          source_.c_str(), line_,
                                          key.c_str(), value.c_str()));
        if (section_ == "experiment")
            experimentKey(key, value);
        else if (section_ == "cluster")
            clusterKey(key, value);
        else if (section_ == "connections")
            connectionsKey(key, value);
        else if (section_ == "chaos")
            chaosKey(key, value);
        else if (section_ == "sweep")
            sweepKey(key, value);
        else if (section_ == "slo")
            out_.slos.push_back(
                SloBound{key, sim::toNs(sim::parseDuration(value))});
        else
            outputKey(key, value);
    }

    void
    finish()
    {
        const bool has_load = !out_.loadFractions.empty();
        const bool has_rps = !out_.absoluteRps.empty();
        if (has_load && has_rps) {
            sim::fatal(source_ + ": [sweep] declares both 'load' and "
                       "'rps' — the axes are exclusive");
        }
        if (!has_load && !has_rps) {
            sim::fatal(source_ + ": no load axis — add 'load = ...' "
                       "(capacity fractions) or 'rps = ...' (absolute "
                       "rates) to [sweep]");
        }
        if (!out_.schedulers.empty() &&
            !out_.base.connections.active()) {
            // Sweeping schedulers with no client population would
            // compare N copies of one run: the derived default
            // population always runs under `all`.
            sim::fatal(source_ + ": [sweep] 'scheduler' axis needs an "
                       "active [connections] section ('clients = N')");
        }
        if (connSectionSeen_ && !out_.base.connections.active()) {
            // The section only means something with a population: a
            // scheduler/qp tweak with no clients would silently run
            // the derived default population (`all`, unbounded QP
            // cache).
            sim::fatal(source_ + ": [connections] section without a "
                       "'clients = N' key — the subsystem stays off");
        }
        if (out_.base.connections.active()) {
            sim::ErrorContext ctx(source_ + ": [connections]");
            out_.base.connections.validate();
        }
        if (out_.base.retry.active()) {
            // Cross-section check: an active [chaos] retry policy
            // needs the [cluster] timeout its sweep triggers off.
            sim::ErrorContext ctx(source_ + ": [chaos] retry policy");
            out_.base.retry.validate(out_.base.cluster.requestTimeout);
        }
    }

  private:
    /** Line-shape errors, raised before the per-key ErrorContext frame
     *  exists, name the location themselves; the key handlers below
     *  run inside that frame and call sim::fatal directly. */
    [[noreturn]] void
    die(const std::string &msg) const
    {
        sim::fatal(
            sim::strfmt("%s:%d: %s", source_.c_str(), line_,
                        msg.c_str()));
    }

    void
    experimentKey(const std::string &key, const std::string &value)
    {
        if (key == "name") {
            out_.name = value;
        } else if (key == "workload") {
            out_.base.workload = core::checkWorkload(value);
        } else if (key == "arrival") {
            out_.base.arrival = core::checkArrival(value);
        } else if (key == "policy") {
            out_.base.system.policy = core::checkPolicy(value);
        } else if (key == "mode") {
            out_.base.system.mode = ni::dispatchModeFromName(value);
        } else if (key == "warmup") {
            out_.base.warmupRpcs = sim::parseUint(value);
        } else if (key == "measured") {
            const std::uint64_t n = sim::parseUint(value);
            if (n == 0)
                sim::fatal("'measured' must be at least 1");
            out_.base.measuredRpcs = n;
        } else if (key == "seed") {
            out_.base.system.seed = sim::parseUint(value);
        } else if (key == "parallel_domains") {
            const std::uint64_t n = sim::parseUint(value);
            if (n > 1024)
                sim::fatal("'parallel_domains' must be at most 1024");
            out_.base.parallelDomains = static_cast<unsigned>(n);
        } else {
            sim::fatal("unknown [experiment] key '" + key +
                "' (expected name, workload, arrival, policy, mode, "
                "warmup, measured, seed, or parallel_domains)");
        }
    }

    void
    clusterKey(const std::string &key, const std::string &value)
    {
        if (key == "nodes") {
            const std::uint64_t n = sim::parseUint(value);
            if (n < 1 || n > 64)
                sim::fatal("'nodes' must be in [1, 64]");
            out_.base.cluster.numServerNodes =
                static_cast<std::uint32_t>(n);
        } else if (key == "router") {
            out_.base.cluster.router = core::checkRouter(value);
        } else if (key == "timeout") {
            out_.base.cluster.requestTimeout = sim::parseDuration(value);
        } else if (key == "fail_threshold") {
            const std::uint64_t n = sim::parseUint(value, 0, UINT32_MAX);
            if (n < 1)
                sim::fatal("'fail_threshold' must be at least 1");
            out_.base.cluster.failThreshold =
                static_cast<std::uint32_t>(n);
        } else if (key == "recovery_after") {
            out_.base.cluster.recoveryAfter = sim::parseDuration(value);
        } else {
            sim::fatal("unknown [cluster] key '" + key +
                "' (expected nodes, router, timeout, fail_threshold, "
                "or recovery_after)");
        }
    }

    void
    connectionsKey(const std::string &key, const std::string &value)
    {
        connSectionSeen_ = true;
        if (key == "nodes") {
            // Messaging-domain size: emulated endpoints the logical
            // clients are multiplexed onto, NOT the server count.
            const std::uint64_t n = sim::parseUint(value);
            if (n < 2 || n > 100000)
                sim::fatal("'nodes' must be in [2, 100000]");
            out_.base.system.domain.numNodes =
                static_cast<std::uint32_t>(n);
        } else if (key == "clients") {
            const std::uint64_t n = sim::parseUint(value);
            if (n < 1 || n > (1u << 24))
                sim::fatal("'clients' must be in [1, 2^24]");
            out_.base.connections.numClients =
                static_cast<std::uint32_t>(n);
        } else if (key == "scheduler") {
            out_.base.connections.scheduler =
                core::checkConnScheduler(value);
        } else if (key == "qp_capacity") {
            out_.base.connections.qpCapacity = static_cast<std::uint32_t>(
                sim::parseUint(value, 0, UINT32_MAX));
        } else {
            sim::fatal("unknown [connections] key '" + key +
                "' (expected nodes, clients, scheduler, or "
                "qp_capacity)");
        }
    }

    void
    chaosKey(const std::string &key, const std::string &value)
    {
        if (key == "fault") {
            // Repeatable; each line adds one spec. Shape checks
            // (node/core ranges) run when the point resolves, with the
            // spec in the message.
            out_.base.faults.push_back(core::checkFault(value));
        } else if (key == "retry_max_attempts") {
            out_.base.retry.maxAttempts = static_cast<std::uint32_t>(
                sim::parseUint(value, 0, UINT32_MAX));
        } else if (key == "retry_backoff") {
            out_.base.retry.baseBackoff = sim::parseDuration(value);
        } else if (key == "retry_multiplier") {
            const double m = sim::parseReal(value);
            if (m < 1.0)
                sim::fatal("'retry_multiplier' must be >= 1");
            out_.base.retry.multiplier = m;
        } else if (key == "retry_jitter") {
            const double j = sim::parseReal(value);
            if (j < 0.0 || j > 1.0)
                sim::fatal("'retry_jitter' must be in [0, 1]");
            out_.base.retry.jitter = j;
        } else if (key == "hedge_after") {
            out_.base.retry.hedgeAfter = sim::parseDuration(value);
        } else {
            sim::fatal("unknown [chaos] key '" + key +
                "' (expected fault, retry_max_attempts, retry_backoff, "
                "retry_multiplier, retry_jitter, or hedge_after)");
        }
    }

    void
    sweepKey(const std::string &key, const std::string &value)
    {
        if (key == "load") {
            for (const std::string &item : splitList(value)) {
                const double f = sim::parseReal(item);
                if (!(f > 0.0) || f > 4.0)
                    sim::fatal("load fraction '" + item +
                               "' must be in (0, 4]");
                out_.loadFractions.push_back(f);
            }
        } else if (key == "rps") {
            for (const std::string &item : splitList(value)) {
                const double r = sim::parseReal(item);
                if (!(r > 0.0))
                    sim::fatal("rps '" + item + "' must be positive");
                out_.absoluteRps.push_back(r);
            }
        } else if (key == "workload") {
            for (const std::string &item : splitList(value)) {
                (void)core::checkWorkload(item);
                out_.workloads.push_back(item);
            }
        } else if (key == "policy") {
            for (const std::string &item : splitList(value)) {
                (void)core::checkPolicy(item);
                out_.policies.push_back(item);
            }
        } else if (key == "arrival") {
            for (const std::string &item : splitList(value)) {
                (void)core::checkArrival(item);
                out_.arrivals.push_back(item);
            }
        } else if (key == "router") {
            for (const std::string &item : splitList(value)) {
                (void)core::checkRouter(item);
                out_.routers.push_back(item);
            }
        } else if (key == "scheduler") {
            for (const std::string &item : splitList(value)) {
                (void)core::checkConnScheduler(item);
                out_.schedulers.push_back(item);
            }
        } else if (key == "nodes") {
            for (const std::string &item : splitList(value)) {
                const std::uint64_t n = sim::parseUint(item);
                if (n < 1 || n > 64)
                    sim::fatal("node count '" + item +
                               "' must be in [1, 64]");
                out_.nodeCounts.push_back(
                    static_cast<std::uint32_t>(n));
            }
        } else if (key == "threads") {
            const std::uint64_t n = sim::parseUint(value);
            if (n < 1 || n > 1024)
                sim::fatal("'threads' must be in [1, 1024]");
            out_.threads = static_cast<unsigned>(n);
        } else {
            sim::fatal("unknown [sweep] key '" + key +
                "' (expected load, rps, workload, policy, arrival, "
                "router, scheduler, nodes, or threads)");
        }
    }

    void
    outputKey(const std::string &key, const std::string &value)
    {
        if (key == "dir")
            out_.outputDir = value;
        else if (key == "json")
            out_.writeJson = sim::parseBool(value);
        else if (key == "prometheus")
            out_.writePrometheus = sim::parseBool(value);
        else
            sim::fatal("unknown [output] key '" + key +
                "' (expected dir, json, or prometheus)");
    }

    std::string source_;
    Scenario &out_;
    std::string section_;
    int line_ = 0;
    bool connSectionSeen_ = false;
};

Scenario
parseLines(std::istream &in, const std::string &source,
           const std::string &default_name)
{
    Scenario scn;
    scn.source = source;
    scn.name = default_name;
    Parser parser(source, scn);
    std::string line;
    int number = 0;
    while (std::getline(in, line))
        parser.feed(line, ++number);
    parser.finish();
    return scn;
}

} // namespace

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        sim::fatal(
            sim::strfmt("cannot open scenario file '%s'", path.c_str()));
    }
    return parseLines(f, path, stemOf(path));
}

Scenario
parseScenarioText(const std::string &text, const std::string &source)
{
    std::istringstream in(text);
    return parseLines(in, source, source);
}

std::vector<ScenarioPoint>
expandMatrix(const Scenario &scn)
{
    // Empty axes fall back to the base value, marked by an empty
    // string (or 0 node count) so the point's config keeps the base
    // field untouched — the single-point bit-identity guarantee.
    const std::vector<std::string> one_default{std::string()};
    const auto &ws = scn.workloads.empty() ? one_default : scn.workloads;
    const auto &ps = scn.policies.empty() ? one_default : scn.policies;
    const auto &as = scn.arrivals.empty() ? one_default : scn.arrivals;
    const auto &rs = scn.routers.empty() ? one_default : scn.routers;
    const auto &ss =
        scn.schedulers.empty() ? one_default : scn.schedulers;
    const std::vector<std::uint32_t> node_default{0};
    const auto &ns =
        scn.nodeCounts.empty() ? node_default : scn.nodeCounts;
    const bool fractional = !scn.loadFractions.empty();
    const auto &loads =
        fractional ? scn.loadFractions : scn.absoluteRps;

    std::vector<ScenarioPoint> points;
    points.reserve(ws.size() * ps.size() * as.size() * rs.size() *
                   ss.size() * ns.size() * loads.size());
    for (const std::string &w : ws) {
        // Capacity depends only on system + workload; resolve once
        // per workload axis value.
        const app::WorkloadSpec wspec =
            w.empty() ? scn.base.workload : app::WorkloadSpec(w);
        const double capacity =
            fractional
                ? core::estimateCapacityRps(scn.base.system, wspec)
                : 0.0;
        for (const std::string &p : ps) {
            for (const std::string &a : as) {
                for (const std::string &r : rs) {
                    for (const std::string &s : ss) {
                        for (const std::uint32_t n : ns) {
                            for (const double l : loads) {
                                ScenarioPoint pt;
                                pt.index = points.size();
                                pt.config = scn.base;
                                if (!w.empty())
                                    pt.config.workload =
                                        app::WorkloadSpec(w);
                                if (!p.empty())
                                    pt.config.system.policy =
                                        ni::PolicySpec(p);
                                if (!a.empty())
                                    pt.config.arrival =
                                        net::ArrivalSpec(a);
                                if (!r.empty())
                                    pt.config.cluster.router =
                                        cluster::RouterSpec(r);
                                if (!s.empty())
                                    pt.config.connections.scheduler =
                                        conn::ConnSpec(s);
                                if (n != 0)
                                    pt.config.cluster.numServerNodes =
                                        n;
                                const std::uint32_t eff_nodes =
                                    pt.config.cluster.numServerNodes;
                                pt.config.arrivalRps =
                                    fractional
                                        ? l * capacity * eff_nodes
                                        : l;
                                pt.workload =
                                    pt.config.workload.toString();
                                pt.policy =
                                    pt.config.system.policy.toString();
                                pt.arrival =
                                    pt.config.arrival.toString();
                                pt.router = pt.config.cluster.router
                                                .toString();
                                pt.scheduler =
                                    pt.config.connections.active()
                                        ? pt.config.connections
                                              .schedulerSpec()
                                              .toString()
                                        : std::string();
                                pt.nodes = eff_nodes;
                                pt.loadFraction = fractional ? l : 0.0;
                                points.push_back(std::move(pt));
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

} // namespace rpcvalet::scenario
