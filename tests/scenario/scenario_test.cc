/**
 * @file
 * Tests of the scenario subsystem: the INI-subset parser (including
 * its file:line fatal diagnostics), canonical matrix expansion, the
 * single-point bit-identity lock against a hand-built
 * ExperimentConfig, SLO evaluation, and the JSON + Prometheus output
 * writers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/types.hh"

namespace {

using namespace rpcvalet;

// ----- parsing -----

TEST(ScenarioParse, FullFilePopulatesEveryField)
{
    const scenario::Scenario scn = scenario::parseScenarioText(
        "# comment\n"
        "; other comment style\n"
        "[experiment]\n"
        "name     = demo\n"
        "workload = masstree:scan_ratio=0.01\n"
        "arrival  = mmpp2:burst=0.1,ratio=10\n"
        "policy   = jbsq:d=2\n"
        "mode     = 4x4\n"
        "warmup   = 100\n"
        "measured = 1000\n"
        "seed     = 7\n"
        "turnaround = 150ns\n"
        "parallel_domains = 2\n"
        "[cluster]\n"
        "nodes    = 4\n"
        "router   = shard\n"
        "shards   = 128\n"
        "timeout  = 50us\n"
        "fail_threshold = 5\n"
        "[sweep]\n"
        "load     = 0.2 | 0.5\n"
        "policy   = greedy | pow2:d=2\n"
        "threads  = 2\n"
        "[slo]\n"
        "get      = 15us\n"
        "scan     = 1ms\n"
        "[output]\n"
        "dir      = out/demo\n"
        "json     = true\n"
        "prometheus = false\n",
        "demo.scn");

    EXPECT_EQ(scn.name, "demo");
    EXPECT_EQ(scn.base.workload.toString(),
              "masstree:scan_ratio=0.01");
    EXPECT_EQ(scn.base.arrival.toString(), "mmpp2:burst=0.1,ratio=10");
    EXPECT_EQ(scn.base.system.policy.toString(), "jbsq:d=2");
    EXPECT_EQ(scn.base.warmupRpcs, 100u);
    EXPECT_EQ(scn.base.measuredRpcs, 1000u);
    EXPECT_EQ(scn.base.system.seed, 7u);
    EXPECT_EQ(scn.base.clientTurnaround, sim::nanoseconds(150.0));
    EXPECT_EQ(scn.base.parallelDomains, 2u);
    EXPECT_EQ(scn.base.cluster.numServerNodes, 4u);
    EXPECT_EQ(scn.base.cluster.router.toString(), "shard");
    EXPECT_EQ(scn.base.cluster.shards, 128u);
    EXPECT_EQ(scn.base.cluster.requestTimeout,
              sim::microseconds(50.0));
    EXPECT_EQ(scn.base.cluster.failThreshold, 5u);
    ASSERT_EQ(scn.loadFractions.size(), 2u);
    EXPECT_DOUBLE_EQ(scn.loadFractions[0], 0.2);
    EXPECT_DOUBLE_EQ(scn.loadFractions[1], 0.5);
    ASSERT_EQ(scn.policies.size(), 2u);
    EXPECT_EQ(scn.policies[0], "greedy");
    EXPECT_EQ(scn.policies[1], "pow2:d=2");
    EXPECT_EQ(scn.threads, 2u);
    ASSERT_EQ(scn.slos.size(), 2u);
    EXPECT_EQ(scn.slos[0].className, "get");
    EXPECT_DOUBLE_EQ(scn.slos[0].boundNs, 15000.0);
    EXPECT_EQ(scn.slos[1].className, "scan");
    EXPECT_DOUBLE_EQ(scn.slos[1].boundNs, 1e6);
    EXPECT_EQ(scn.outputDir, "out/demo");
    EXPECT_TRUE(scn.writeJson);
    EXPECT_FALSE(scn.writePrometheus);
}

TEST(ScenarioParse, ChaosSectionPopulatesFaultsAndRetry)
{
    const scenario::Scenario scn = scenario::parseScenarioText(
        "[cluster]\n"
        "nodes   = 4\n"
        "timeout = 30us\n"
        "sweep_interval = 5us\n"
        "[chaos]\n"
        "fault = crash:node=3,at=100us,recover_after=300us\n"
        "fault = packet-loss:p=0.005\n"
        "retry_max_attempts = 6\n"
        "retry_backoff      = 5us\n"
        "retry_multiplier   = 2\n"
        "retry_jitter       = 0.2\n"
        "hedge_after        = 20us\n"
        "[sweep]\n"
        "load = 0.5\n",
        "chaos.scn");
    ASSERT_EQ(scn.base.faults.size(), 2u);
    // toString() canonicalizes: params print in sorted key order.
    EXPECT_EQ(scn.base.faults[0].toString(),
              "crash:at=100us,node=3,recover_after=300us");
    EXPECT_EQ(scn.base.faults[1].name, "packet-loss");
    EXPECT_EQ(scn.base.retry.maxAttempts, 6u);
    EXPECT_EQ(scn.base.retry.baseBackoff, sim::microseconds(5.0));
    EXPECT_DOUBLE_EQ(scn.base.retry.multiplier, 2.0);
    EXPECT_DOUBLE_EQ(scn.base.retry.jitter, 0.2);
    EXPECT_EQ(scn.base.retry.hedgeAfter, sim::microseconds(20.0));
    EXPECT_TRUE(scn.base.retry.active());
    EXPECT_EQ(scn.base.cluster.sweepInterval, sim::microseconds(5.0));
}

TEST(ScenarioParse, EveryCheckedInScenarioParsesAndExpands)
{
    // A grammar change that breaks a file under examples/scenarios/
    // fails here, not only in a release-build smoke run.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(RPCVALET_SCENARIO_DIR)) {
        if (entry.path().extension() != ".scn")
            continue;
        SCOPED_TRACE(entry.path().string());
        const scenario::Scenario scn =
            scenario::parseScenarioFile(entry.path().string());
        EXPECT_FALSE(scenario::expandMatrix(scn).empty());
        ++files;
    }
    EXPECT_GE(files, 4u);
}

TEST(ScenarioParse, FileStemIsTheDefaultName)
{
    const std::string path =
        ::testing::TempDir() + "/stem_check.scn";
    std::ofstream(path) << "[sweep]\nrps = 1e6\n";
    const scenario::Scenario scn = scenario::parseScenarioFile(path);
    EXPECT_EQ(scn.name, "stem_check");
    EXPECT_EQ(scn.source, path);
    std::remove(path.c_str());
}

// ----- fatal diagnostics (satellite: uniform file:line context) -----

TEST(ScenarioParseDeath, UnknownKeyNamesFileAndLine)
{
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[experiment]\ntypo_key = 1\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(typo_key = 1\\).*unknown "
                "\\[experiment\\] key 'typo_key'");
}

TEST(ScenarioParseDeath, FailNodeIsAnUnknownClusterKey)
{
    // Node crashes are spelled one way: [chaos] fault = crash:...
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[cluster]\nnodes = 4\nfail_node = 2\n"
                    "[sweep]\nload = 0.5\n",
                    "crash.scn"),
                ::testing::ExitedWithCode(1),
                "crash\\.scn:3 \\(fail_node = 2\\).*unknown "
                "\\[cluster\\] key 'fail_node'");
}

TEST(ScenarioParseDeath, RegistryErrorGainsFileLineAndToken)
{
    // The policy registry only knows the bad spec; the parser's
    // ErrorContext frame prefixes where it came from.
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[experiment]\npolicy = jbqs:d=2\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(policy = jbqs:d=2\\)");
}

TEST(ScenarioParseDeath, MalformedLinesDieWithLineNumbers)
{
    EXPECT_EXIT((void)scenario::parseScenarioText("[experiment\n",
                                                  "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:1: malformed section header");
    EXPECT_EXIT((void)scenario::parseScenarioText("[nowhere]\n",
                                                  "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:1: unknown section '\\[nowhere\\]'");
    EXPECT_EXIT((void)scenario::parseScenarioText("stray = 1\n",
                                                  "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:1: 'stray' appears before any");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[sweep]\nload 0.5\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2: expected 'key = value'");
}

TEST(ScenarioParseDeath, ValueValidationFires)
{
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[cluster]\ntimeout = 50lightyears\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(timeout = 50lightyears\\).*unknown "
                "unit");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[sweep]\nload = 0.5 || 0.8\n", "bad.scn"),
                ::testing::ExitedWithCode(1), "empty list entry");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[sweep]\nnodes = 99\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "node count '99' must be in \\[1, 64\\]");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[experiment]\nparallel_domains = 4096\n",
                    "bad.scn"),
                ::testing::ExitedWithCode(1),
                "'parallel_domains' must be at most 1024");
}

TEST(ScenarioParseDeath, BadFaultSpecsDieWithFileAndLine)
{
    // Unknown fault names and out-of-range parameters are caught at
    // parse time by instantiating through the registry, with the
    // file:line (key = value) frame prefixed.
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[chaos]\nfault = pakcet-loss:p=0.1\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(fault = pakcet-loss:p=0.1\\).*unknown "
                "fault 'pakcet-loss'");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[chaos]\nfault = packet-loss:p=1.5\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2.*p must be in \\[0, 1\\]");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[chaos]\nretry_multiplier = 0.5\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2.*'retry_multiplier' must be >= 1");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[chaos]\nretry_jitter = 2\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2.*'retry_jitter' must be in \\[0, 1\\]");
}

TEST(ScenarioParseDeath, ActiveRetryWithoutClusterTimeoutIsFatal)
{
    // Cross-section validation at finish(): retries trigger off the
    // [cluster] timeout sweep, so an active policy without one cannot
    // run.
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[chaos]\nretry_max_attempts = 3\n"
                    "[sweep]\nload = 0.5\n",
                    "bad.scn"),
                ::testing::ExitedWithCode(1),
                "\\[chaos\\] retry policy.*requires a cluster request "
                "timeout");
}

TEST(ScenarioParseDeath, ZeroSweepIntervalIsFatal)
{
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[cluster]\nsweep_interval = 0\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "'sweep_interval' must be > 0");
}

TEST(ScenarioParseDeath, LoadAxisIsMandatoryAndExclusive)
{
    EXPECT_EXIT((void)scenario::parseScenarioText("[experiment]\n"
                                                  "seed = 1\n",
                                                  "bad.scn"),
                ::testing::ExitedWithCode(1), "no load axis");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[sweep]\nload = 0.5\nrps = 1e6\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "declares both 'load' and 'rps'");
}

// ----- [connections] section -----

TEST(ScenarioParse, ConnectionsSectionPopulatesConnConfig)
{
    const scenario::Scenario scn = scenario::parseScenarioText(
        "[connections]\n"
        "nodes       = 400\n"
        "clients     = 2048\n"
        "scheduler   = grouped:size=40,slice=100us\n"
        "qp_capacity = 64\n"
        "qp_cold     = 800ns\n"
        "[sweep]\n"
        "load = 0.5\n",
        "conn.scn");

    EXPECT_EQ(scn.base.system.domain.numNodes, 400u);
    ASSERT_TRUE(scn.base.connections.active());
    EXPECT_EQ(scn.base.connections.numClients, 2048u);
    EXPECT_EQ(scn.base.connections.scheduler.toString(),
              "grouped:size=40,slice=100us");
    EXPECT_EQ(scn.base.connections.qpCapacity, 64u);
    EXPECT_DOUBLE_EQ(scn.base.connections.qpColdNs, 800.0);
}

TEST(ScenarioParseDeath, BadConnectionsKeysDieWithFileAndLine)
{
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[connections]\nclient = 2048\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(client = 2048\\).*unknown "
                "\\[connections\\] key 'client'");
    // Scheduler specs resolve through the conn registry at parse time,
    // with the file:line (key = value) frame prefixed.
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[connections]\nscheduler = groupde\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(scheduler = groupde\\).*unknown conn "
                "scheduler 'groupde'");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[connections]\nscheduler = grouped:size=0\n",
                    "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:2 \\(scheduler = grouped:size=0\\).*size "
                "must be >= 1");
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[connections]\nnodes = 1\n", "bad.scn"),
                ::testing::ExitedWithCode(1),
                "'nodes' must be in \\[2, 100000\\]");
}

TEST(ScenarioExpand, SchedulerAxisOverridesConnScheduler)
{
    const scenario::Scenario scn = scenario::parseScenarioText(
        "[connections]\n"
        "clients   = 1024\n"
        "qp_capacity = 64\n"
        "[sweep]\n"
        "scheduler = all | grouped:size=40,slice=100us\n"
        "load      = 0.5\n",
        "conn.scn");
    ASSERT_EQ(scn.schedulers.size(), 2u);
    const std::vector<scenario::ScenarioPoint> points =
        scenario::expandMatrix(scn);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].scheduler, "all");
    EXPECT_EQ(points[0].config.connections.schedulerSpec().toString(),
              "all");
    EXPECT_EQ(points[1].scheduler, "grouped:size=40,slice=100us");
    EXPECT_EQ(points[1].config.connections.scheduler.toString(),
              "grouped:size=40,slice=100us");
    // Both points keep the shared population.
    EXPECT_EQ(points[0].config.connections.numClients, 1024u);
    EXPECT_EQ(points[1].config.connections.numClients, 1024u);
}

TEST(ScenarioParseDeath, SchedulerAxisWithoutPopulationIsFatal)
{
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[sweep]\nscheduler = all | grouped\n"
                    "load = 0.5\n",
                    "bad.scn"),
                ::testing::ExitedWithCode(1),
                "'scheduler' axis needs an active \\[connections\\] "
                "section");
    // Axis values resolve through the conn registry at parse time.
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[connections]\nclients = 64\n"
                    "[sweep]\nscheduler = grouped:slice=0\n"
                    "load = 0.5\n",
                    "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn:4 \\(scheduler = grouped:slice=0\\).*slice "
                "must be > 0");
}

TEST(ScenarioParseDeath, ConnectionsSectionWithoutClientsIsFatal)
{
    // A scheduler/qp tweak with no population would silently run the
    // legacy path; finish() catches it.
    EXPECT_EXIT((void)scenario::parseScenarioText(
                    "[connections]\nqp_capacity = 64\n"
                    "[sweep]\nload = 0.5\n",
                    "bad.scn"),
                ::testing::ExitedWithCode(1),
                "bad\\.scn: \\[connections\\] section without a "
                "'clients = N' key");
}

// ----- matrix expansion -----

TEST(ScenarioExpand, CanonicalOrderLoadInnermost)
{
    const scenario::Scenario scn = scenario::parseScenarioText(
        "[sweep]\n"
        "policy = greedy | rr\n"
        "rps    = 1e6 | 2e6\n",
        "order.scn");
    const std::vector<scenario::ScenarioPoint> pts =
        scenario::expandMatrix(scn);
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].policy, "greedy");
    EXPECT_DOUBLE_EQ(pts[0].config.arrivalRps, 1e6);
    EXPECT_EQ(pts[1].policy, "greedy");
    EXPECT_DOUBLE_EQ(pts[1].config.arrivalRps, 2e6);
    EXPECT_EQ(pts[2].policy, "rr");
    EXPECT_DOUBLE_EQ(pts[2].config.arrivalRps, 1e6);
    EXPECT_EQ(pts[3].policy, "rr");
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(pts[i].index, i);
}

TEST(ScenarioExpand, FractionalLoadScalesWithCapacityAndNodes)
{
    const scenario::Scenario scn = scenario::parseScenarioText(
        "[sweep]\n"
        "nodes = 1 | 2\n"
        "load  = 0.5\n",
        "frac.scn");
    const std::vector<scenario::ScenarioPoint> pts =
        scenario::expandMatrix(scn);
    ASSERT_EQ(pts.size(), 2u);
    const double capacity = core::estimateCapacityRps(
        scn.base.system, scn.base.workload);
    EXPECT_DOUBLE_EQ(pts[0].config.arrivalRps, 0.5 * capacity);
    EXPECT_DOUBLE_EQ(pts[1].config.arrivalRps, 0.5 * capacity * 2.0);
    EXPECT_DOUBLE_EQ(pts[1].loadFraction, 0.5);
    EXPECT_EQ(pts[1].config.cluster.numServerNodes, 2u);
}

// ----- the single-point bit-identity lock -----

TEST(ScenarioRun, SinglePointScenarioIsBitIdenticalToHandBuiltConfig)
{
    // A scenario with no sweep axes beyond one absolute rate must
    // reproduce the hand-built ExperimentConfig run bit for bit —
    // executed event count included. These are the same goldens
    // tests/cluster/cluster_experiment_test.cc locks.
    const scenario::Scenario scn = scenario::parseScenarioText(
        "[experiment]\n"
        "warmup   = 500\n"
        "measured = 5000\n"
        "[sweep]\n"
        "rps      = 10e6\n",
        "lock.scn");
    const std::vector<scenario::ScenarioPoint> pts =
        scenario::expandMatrix(scn);
    ASSERT_EQ(pts.size(), 1u);

    core::ExperimentConfig cfg;
    cfg.arrivalRps = 10e6;
    cfg.warmupRpcs = 500;
    cfg.measuredRpcs = 5000;
    const core::RunStats direct = core::runExperiment(cfg);
    const core::RunStats via = core::runExperiment(pts[0].config);

    EXPECT_EQ(via.executedEvents, direct.executedEvents);
    EXPECT_EQ(via.point.p50Ns, direct.point.p50Ns);
    EXPECT_EQ(via.point.p99Ns, direct.point.p99Ns);
    EXPECT_EQ(via.point.achievedRps, direct.point.achievedRps);
    EXPECT_EQ(via.completions, direct.completions);
    // And both match the cluster test's golden numbers.
    EXPECT_EQ(via.executedEvents, 110046u);
    EXPECT_EQ(via.point.p50Ns, 518.72900000000004);
    EXPECT_EQ(via.point.p99Ns, 1089.02);
}

// ----- execution, SLOs, and outputs -----

scenario::Scenario
tinyScenario(const std::string &slo_line)
{
    return scenario::parseScenarioText("[experiment]\n"
                                       "name     = tiny\n"
                                       "warmup   = 100\n"
                                       "measured = 2000\n"
                                       "[sweep]\n"
                                       "rps      = 5e6\n"
                                       "[slo]\n" +
                                           slo_line,
                                       "tiny.scn");
}

TEST(ScenarioRun, MetSloReportsTrue)
{
    const scenario::ScenarioResult result =
        scenario::runScenario(tinyScenario("herd = 1ms\n"));
    ASSERT_EQ(result.points.size(), 1u);
    ASSERT_EQ(result.points[0].slos.size(), 1u);
    const scenario::SloOutcome &so = result.points[0].slos[0];
    EXPECT_TRUE(so.classFound);
    EXPECT_TRUE(so.met);
    EXPECT_GT(so.p99Ns, 0.0);
    EXPECT_TRUE(result.slosMet);
}

TEST(ScenarioRun, ImpossibleSloReportsMiss)
{
    const scenario::ScenarioResult result =
        scenario::runScenario(tinyScenario("herd = 1ns\n"));
    EXPECT_TRUE(result.points[0].slos[0].classFound);
    EXPECT_FALSE(result.points[0].slos[0].met);
    EXPECT_FALSE(result.slosMet);
}

TEST(ScenarioRun, UnknownSloClassReportsNotFound)
{
    const scenario::ScenarioResult result =
        scenario::runScenario(tinyScenario("nosuch = 1ms\n"));
    EXPECT_FALSE(result.points[0].slos[0].classFound);
    EXPECT_FALSE(result.points[0].slos[0].met);
    EXPECT_FALSE(result.slosMet);
}

TEST(ScenarioRun, ThreadedExecutionMatchesSequential)
{
    scenario::Scenario scn = scenario::parseScenarioText(
        "[experiment]\n"
        "warmup   = 100\n"
        "measured = 1500\n"
        "[sweep]\n"
        "rps      = 4e6 | 6e6 | 8e6\n",
        "threads.scn");
    const scenario::ScenarioResult seq = scenario::runScenario(scn);
    scn.threads = 3;
    const scenario::ScenarioResult par = scenario::runScenario(scn);
    ASSERT_EQ(seq.points.size(), par.points.size());
    for (std::size_t i = 0; i < seq.points.size(); ++i) {
        EXPECT_EQ(seq.points[i].stats.executedEvents,
                  par.points[i].stats.executedEvents);
        EXPECT_EQ(seq.points[i].stats.point.p99Ns,
                  par.points[i].stats.point.p99Ns);
    }
}

TEST(ScenarioRun, OutputsLandInTheScenarioDirectory)
{
    scenario::Scenario scn = tinyScenario("herd = 1ms\n");
    scn.outputDir = ::testing::TempDir() + "/scenario_out_test";
    const scenario::ScenarioResult result =
        scenario::runScenario(scn);
    const std::vector<std::string> written =
        scenario::writeScenarioOutputs(result);
    // point_000.json + summary.json + metrics.prom.
    ASSERT_EQ(written.size(), 3u);

    std::ifstream summary(scn.outputDir + "/summary.json");
    ASSERT_TRUE(summary.good());
    std::stringstream buf;
    buf << summary.rdbuf();
    // The provenance stamp and the point's verdict are in there.
    EXPECT_NE(buf.str().find("\"git_sha\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"build_type\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"slos_met\": true"),
              std::string::npos);

    std::ifstream prom(scn.outputDir + "/metrics.prom");
    ASSERT_TRUE(prom.good());
    std::stringstream pbuf;
    pbuf << prom.rdbuf();
    EXPECT_NE(pbuf.str().find("# TYPE rpcvalet_latency_ns summary"),
              std::string::npos);
    EXPECT_NE(pbuf.str().find("rpcvalet_slo_met{"),
              std::string::npos);
    for (const std::string &w : written)
        std::remove(w.c_str());
}

} // namespace
